//! Failure classification and panic-contained retries, shared by the
//! benchmark grid (one cell at a time) and the job service (one job at a
//! time).
//!
//! Every pipeline failure lands in one [`CellFailure`] class. Panics and
//! wall-clock timeouts may be host flakes, so [`isolate`] retries them
//! under a [`RetryPolicy`]; budget exhaustion, invalid input and any other
//! pipeline error are deterministic properties of the input and are
//! answered on the first attempt.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::pipeline::PipelineError;

/// Why a cell or job failed, as a deterministic, cloneable classification.
#[derive(Clone, Debug, PartialEq)]
pub enum CellFailure {
    /// The pipeline panicked. `retried` means the same seed/config was
    /// attempted more than once and panicked every time — a deterministic
    /// bug, not a host flake.
    Panicked { message: String, retried: bool },
    /// The cooperative wall-clock watchdog fired.
    TimedOut { pe: usize, steps: u64, retried: bool },
    /// The cycle/step budget was exhausted — deterministic, never retried.
    BudgetExceeded { pe: usize, cycles: u64, steps: u64 },
    /// The program or machine configuration was rejected up front —
    /// deterministic, never retried.
    Invalid { message: String },
    /// Any other pipeline failure (e.g. a coherence violation) —
    /// deterministic, never retried.
    Failed { message: String },
}

impl CellFailure {
    /// Short machine-readable class name (the `outcome` field in reports).
    pub fn class(&self) -> &'static str {
        match self {
            CellFailure::Panicked { .. } => "panicked",
            CellFailure::TimedOut { .. } => "timed_out",
            CellFailure::BudgetExceeded { .. } => "budget_exceeded",
            CellFailure::Invalid { .. } => "invalid",
            CellFailure::Failed { .. } => "failed",
        }
    }

    /// Panics and timeouts may be host flakes; everything else is a
    /// deterministic property of the input and retrying would just repeat it.
    pub fn retryable(&self) -> bool {
        matches!(self, CellFailure::Panicked { .. } | CellFailure::TimedOut { .. })
    }

    fn mark_retried(&mut self) {
        match self {
            CellFailure::Panicked { retried, .. } | CellFailure::TimedOut { retried, .. } => {
                *retried = true
            }
            _ => {}
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked { message, retried } => {
                write!(f, "panicked{}: {message}", if *retried { " (twice)" } else { "" })
            }
            CellFailure::TimedOut { pe, steps, retried } => write!(
                f,
                "timed out{} on PE {pe} after {steps} steps",
                if *retried { " (twice)" } else { "" }
            ),
            CellFailure::BudgetExceeded { pe, cycles, steps } => {
                write!(f, "budget exceeded on PE {pe}: {cycles} cycles after {steps} steps")
            }
            CellFailure::Invalid { message } => write!(f, "invalid input: {message}"),
            CellFailure::Failed { message } => write!(f, "failed: {message}"),
        }
    }
}

/// Classify a pipeline error into its failure class.
pub fn classify_pipeline(e: PipelineError) -> CellFailure {
    match e {
        PipelineError::BudgetExceeded { pe, cycles, steps } => {
            CellFailure::BudgetExceeded { pe, cycles, steps }
        }
        PipelineError::Timeout { pe, steps } => {
            CellFailure::TimedOut { pe, steps, retried: false }
        }
        PipelineError::InvalidConfig(_) | PipelineError::InvalidProgram(_) => {
            CellFailure::Invalid { message: e.to_string() }
        }
        other => CellFailure::Failed { message: other.to_string() },
    }
}

/// The text of a caught panic payload.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How often a retryable failure is re-attempted. The default is the job
/// service's policy; the benchmark grid uses two attempts and no backoff.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before retry k is `base_backoff * 2^(k-1)`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(25) }
    }
}

/// Run `job` with panic containment, classifying its error type through
/// `to_failure`, and retry [retryable](CellFailure::retryable) failures
/// under `policy`. A job that needs a wall deadline computes it inside
/// `job`, so every attempt gets the full timeout again. Returns the verdict
/// and the number of retries performed; a failure that survived a retry is
/// marked `retried`.
pub fn isolate<T, E>(
    policy: &RetryPolicy,
    to_failure: impl Fn(E) -> CellFailure,
    job: impl Fn() -> Result<T, E>,
) -> (Result<T, CellFailure>, u32) {
    let mut retries = 0u32;
    loop {
        let mut failure = match catch_unwind(AssertUnwindSafe(&job)) {
            Ok(Ok(v)) => return (Ok(v), retries),
            Ok(Err(e)) => to_failure(e),
            Err(p) => CellFailure::Panicked { message: panic_message(p), retried: false },
        };
        if !failure.retryable() || retries + 1 >= policy.max_attempts {
            if retries > 0 {
                failure.mark_retried();
            }
            return (Err(failure), retries);
        }
        eprintln!("note: retrying after a transient failure ({failure})");
        std::thread::sleep(policy.base_backoff * 2u32.pow(retries));
        retries += 1;
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The benchmark grid's attempts and the service default's, without
    /// sleeping.
    fn policies() -> [RetryPolicy; 2] {
        [
            RetryPolicy { max_attempts: 2, base_backoff: Duration::ZERO },
            RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() },
        ]
    }

    #[test]
    fn persistent_panic_runs_every_attempt_and_is_marked_retried() {
        for policy in policies() {
            let calls = AtomicU32::new(0);
            let (r, retries) = isolate(&policy, classify_pipeline, || -> Result<(), _> {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("boom {}", 7)
            });
            let n = policy.max_attempts;
            assert_eq!(calls.load(Ordering::SeqCst), n);
            assert_eq!(retries, n - 1);
            assert_eq!(
                r.unwrap_err(),
                CellFailure::Panicked { message: "boom 7".to_string(), retried: true }
            );
        }
    }

    #[test]
    fn deterministic_failures_run_once() {
        let cases = [
            (
                PipelineError::BudgetExceeded { pe: 3, cycles: 10, steps: 20 },
                CellFailure::BudgetExceeded { pe: 3, cycles: 10, steps: 20 },
            ),
            (
                PipelineError::InvalidConfig(t3d_sim::ConfigError::ZeroPes),
                CellFailure::Invalid {
                    message: PipelineError::InvalidConfig(t3d_sim::ConfigError::ZeroPes)
                        .to_string(),
                },
            ),
            (
                PipelineError::Unsound { findings: Vec::new() },
                CellFailure::Failed {
                    message: PipelineError::Unsound { findings: Vec::new() }.to_string(),
                },
            ),
        ];
        for policy in policies() {
            for (err, want) in &cases {
                let calls = AtomicU32::new(0);
                let (r, retries) = isolate(&policy, classify_pipeline, || -> Result<(), _> {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err(err.clone())
                });
                assert_eq!(calls.load(Ordering::SeqCst), 1, "{want}");
                assert_eq!(retries, 0);
                assert_eq!(&r.unwrap_err(), want);
            }
        }
    }

    #[test]
    fn one_panic_then_success_recovers() {
        for policy in policies() {
            let calls = AtomicU32::new(0);
            let (r, retries) = isolate(&policy, classify_pipeline, || {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flake");
                }
                Ok::<u32, PipelineError>(42)
            });
            assert_eq!(r.unwrap(), 42);
            assert_eq!((calls.load(Ordering::SeqCst), retries), (2, 1));
        }
    }

    #[test]
    fn timeouts_are_retried_and_marked() {
        let policy = policies()[0];
        let (r, retries) = isolate(&policy, classify_pipeline, || -> Result<(), _> {
            Err(PipelineError::Timeout { pe: 1, steps: 5 })
        });
        assert_eq!(retries, 1);
        let f = r.unwrap_err();
        assert_eq!(f, CellFailure::TimedOut { pe: 1, steps: 5, retried: true });
        assert_eq!(f.to_string(), "timed out (twice) on PE 1 after 5 steps");
    }

    #[test]
    fn panic_message_reads_both_payload_kinds() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(7u8)), "non-string panic payload");
    }
}
