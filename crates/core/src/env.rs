//! Environment-variable overrides, parsed in exactly one place.
//!
//! These env knobs steer the pipeline, the benchmark harness and ccdpd:
//!
//! | variable                | effect                                         |
//! |-------------------------|------------------------------------------------|
//! | `CCDP_SIM_THREADS`      | worker threads for intra-run PE sharding       |
//! | `CCDP_SEED`             | decision-stream seed for fault-injecting runs  |
//! | `CCDP_SCALE`            | benchmark problem size: `quick` (default) or `paper` |
//! | `CCDP_BENCH_QUICK`      | `1` shrinks the vendored-criterion measurement budget |
//! | `CCDP_SERVE_WORKERS`    | default worker-process count for ccdpd         |
//! | `CCDP_COMPACT_BYTES`    | journal compaction threshold for ccdpd (0 = off) |
//!
//! Historically each consumer read its variable ad hoc (each bench bin
//! parsed `CCDP_SEED` / `CCDP_SCALE` itself), so a typo could silently
//! select the wrong mode.
//! [`EnvOverrides::from_env`] is now the single parsing point: every bad
//! value is a structured [`PipelineError::InvalidConfig`] carrying the
//! variable name, the offending value, and what was expected — and
//! [`EnvOverrides::apply`] is the only place an env var mutates a
//! [`PipelineConfig`].

use crate::pipeline::{PipelineConfig, PipelineError};
use t3d_sim::ConfigError;

/// Benchmark problem-size preset named by `CCDP_SCALE`. The sizes
/// themselves live in the bench harness; core only validates the name.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ScalePreset {
    /// Reduced sizes (seconds of host time); the default.
    #[default]
    Quick,
    /// The paper's full problem sizes (minutes of host time).
    Paper,
}

/// The validated environment overrides. Build with
/// [`EnvOverrides::from_env`]; `Default` is "no variable set".
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EnvOverrides {
    /// `CCDP_SIM_THREADS=<n>`: worker threads for the simulator's
    /// epoch-sharded parallel path (`SimOptions::sim_threads`). `None`
    /// when unset (the simulator default — serial — applies).
    pub sim_threads: Option<usize>,
    /// `CCDP_SEED=<u64>`: deterministic seed for fault-injecting harness
    /// runs. `None` when unset (callers pick their own default).
    pub seed: Option<u64>,
    /// `CCDP_SCALE=quick|paper`: benchmark problem-size preset.
    pub scale: ScalePreset,
    /// `CCDP_BENCH_QUICK=1`: abbreviated measurement budget in the vendored
    /// criterion shim (for `cargo bench` invocations that cannot forward
    /// the `--quick` flag).
    pub bench_quick: bool,
    /// `CCDP_SERVE_WORKERS=<n>`: default worker-process count for the
    /// ccdpd supervisor (`--workers` still wins). `None` when unset.
    pub serve_workers: Option<usize>,
    /// `CCDP_COMPACT_BYTES=<n>`: per-slot journal compaction threshold in
    /// bytes for ccdpd; `0` disables compaction. `None` when unset.
    pub compact_bytes: Option<u64>,
}

impl EnvOverrides {
    /// Parse every override from the process environment. Any malformed
    /// value fails with [`PipelineError::InvalidConfig`] — a typo must not
    /// silently select a default.
    pub fn from_env() -> Result<EnvOverrides, PipelineError> {
        let mut o = EnvOverrides::default();
        if let Ok(v) = std::env::var("CCDP_SIM_THREADS") {
            let n = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    bad_env("CCDP_SIM_THREADS", v, "expected a positive integer")
                })?;
            o.sim_threads = Some(n);
        }
        if let Ok(v) = std::env::var("CCDP_SEED") {
            o.seed = Some(
                v.parse::<u64>()
                    .map_err(|_| bad_env("CCDP_SEED", v, "expected a u64"))?,
            );
        }
        if let Ok(v) = std::env::var("CCDP_SCALE") {
            o.scale = match v.as_str() {
                "" | "quick" => ScalePreset::Quick,
                "paper" => ScalePreset::Paper,
                _ => return Err(bad_env("CCDP_SCALE", v, "expected \"quick\" or \"paper\"")),
            };
        }
        if let Ok(v) = std::env::var("CCDP_BENCH_QUICK") {
            o.bench_quick = match v.as_str() {
                "" | "0" => false,
                "1" => true,
                _ => return Err(bad_env("CCDP_BENCH_QUICK", v, "expected \"0\" or \"1\"")),
            };
        }
        if let Ok(v) = std::env::var("CCDP_SERVE_WORKERS") {
            let n = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    bad_env("CCDP_SERVE_WORKERS", v, "expected a positive integer")
                })?;
            o.serve_workers = Some(n);
        }
        if let Ok(v) = std::env::var("CCDP_COMPACT_BYTES") {
            o.compact_bytes = Some(
                v.parse::<u64>()
                    .map_err(|_| bad_env("CCDP_COMPACT_BYTES", v, "expected a u64"))?,
            );
        }
        Ok(o)
    }

    /// Apply the overrides to a pipeline configuration: `sim_threads`
    /// overwrites only when the variable was actually set. (The other
    /// variables configure the *harness* or the service, not the pipeline,
    /// so their consumers read them from the parsed overrides.)
    pub fn apply(&self, cfg: &mut PipelineConfig) {
        if let Some(t) = self.sim_threads {
            cfg.sim.sim_threads = t;
        }
    }
}

fn bad_env(var: &'static str, value: String, need: &'static str) -> PipelineError {
    PipelineError::InvalidConfig(ConfigError::BadEnv { var, value, need })
}

#[cfg(test)]
mod unit {
    use super::*;

    // Env-var tests share one mutex: the process environment is global and
    // `cargo test` runs tests on several threads.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_vars<T>(
        vars: &[(&str, Option<&str>)],
        f: impl FnOnce() -> T,
    ) -> T {
        let _g = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let saved: Vec<(String, Option<String>)> = vars
            .iter()
            .map(|(k, _)| (k.to_string(), std::env::var(k).ok()))
            .collect();
        for (k, v) in vars {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        let out = f();
        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(&k, v),
                None => std::env::remove_var(&k),
            }
        }
        out
    }

    const ALL_UNSET: [(&str, Option<&str>); 6] = [
        ("CCDP_SIM_THREADS", None),
        ("CCDP_SEED", None),
        ("CCDP_SCALE", None),
        ("CCDP_BENCH_QUICK", None),
        ("CCDP_SERVE_WORKERS", None),
        ("CCDP_COMPACT_BYTES", None),
    ];

    #[test]
    fn unset_environment_is_the_default() {
        let o = with_vars(&ALL_UNSET, EnvOverrides::from_env).unwrap();
        assert_eq!(o, EnvOverrides::default());
        assert_eq!(o.sim_threads, None);
        assert_eq!(o.seed, None);
        assert_eq!(o.scale, ScalePreset::Quick);
        assert!(!o.bench_quick);
        assert_eq!(o.serve_workers, None);
        assert_eq!(o.compact_bytes, None);
    }

    #[test]
    fn valid_values_parse() {
        let o = with_vars(
            &[
                ("CCDP_SIM_THREADS", Some("4")),
                ("CCDP_SEED", Some("42")),
                ("CCDP_SCALE", Some("paper")),
                ("CCDP_BENCH_QUICK", Some("1")),
                ("CCDP_SERVE_WORKERS", Some("3")),
                ("CCDP_COMPACT_BYTES", Some("65536")),
            ],
            EnvOverrides::from_env,
        )
        .unwrap();
        assert_eq!(o.sim_threads, Some(4));
        assert_eq!(o.seed, Some(42));
        assert_eq!(o.scale, ScalePreset::Paper);
        assert!(o.bench_quick);
        assert_eq!(o.serve_workers, Some(3));
        assert_eq!(o.compact_bytes, Some(65536));
    }

    #[test]
    fn bad_values_are_structured_errors_naming_the_variable() {
        for (var, value) in [
            ("CCDP_SIM_THREADS", "0"),
            ("CCDP_SIM_THREADS", "banana"),
            ("CCDP_SIM_THREADS", "-1"),
            ("CCDP_SEED", "banana"),
            ("CCDP_SCALE", "fast"),
            ("CCDP_BENCH_QUICK", "true"),
            ("CCDP_SERVE_WORKERS", "0"),
            ("CCDP_SERVE_WORKERS", "two"),
            ("CCDP_COMPACT_BYTES", "big"),
        ] {
            let mut vars = ALL_UNSET;
            for v in &mut vars {
                if v.0 == var {
                    v.1 = Some(value);
                }
            }
            let err = with_vars(&vars, EnvOverrides::from_env).unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidConfig(ConfigError::BadEnv { .. })),
                "{var}: {err}"
            );
            let msg = format!("{err}");
            assert!(msg.contains(var), "{msg}");
            assert!(msg.contains(value), "{msg}");
        }
    }

    #[test]
    fn apply_sets_sim_threads_only_when_the_variable_was_set() {
        let mut cfg = PipelineConfig::t3d(2);
        cfg.sim.sim_threads = 3;
        EnvOverrides::default().apply(&mut cfg);
        assert_eq!(cfg.sim.sim_threads, 3, "unset env leaves the knob alone");
        EnvOverrides { sim_threads: Some(4), ..Default::default() }.apply(&mut cfg);
        assert_eq!(cfg.sim.sim_threads, 4);
    }
}
