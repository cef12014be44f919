//! The traced replay: `compare_with_seq` and `run_seq` rebuilt from the
//! public calls they make, one span around each, so each layer's host time
//! is measured from outside the program.
//!
//! The replay must produce exactly what the library call produces; the
//! callers compare its encoded matrices and cycle counts against the
//! references.

use ccdp_analysis::{analyze_stale, shard_scan};
use ccdp_core::{CcdpArtifacts, PipelineConfig, Scheme, SchemeMatrix, SchemeRun};
use ccdp_dist::Layout;
use ccdp_ir::Program;
use ccdp_prefetch::plan_prefetches;
use t3d_sim::{Scheme as SimScheme, SimResult, Simulator};

use crate::trace::Tracer;
use crate::Metric;

/// Host-side counters the replay gathers beside its spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Simulated memory accesses (reads and writes, from `PeStats`).
    pub accesses: u64,
    pub sim_cycles: u64,
    pub lint_obligations: u64,
    pub json_bytes: u64,
    pub shard_proven: u64,
    pub shard_logged: u64,
    pub shard_conflicts: u64,
}

impl Counts {
    fn absorb(&mut self, r: &SimResult) {
        let s = r.total_stats();
        self.accesses += s.cache_hits
            + s.local_fills
            + s.remote_fills
            + s.refresh_fills
            + s.staged_fills
            + s.bypass_reads
            + s.uncached_reads
            + s.writes_local
            + s.writes_remote;
        self.sim_cycles += r.cycles;
        self.shard_proven += r.shard.static_proven;
        self.shard_logged += r.shard.dynamic_logged;
        self.shard_conflicts += r.shard.conflicts;
    }
}

fn sim_span(scheme: &SimScheme) -> &'static str {
    match scheme {
        SimScheme::Sequential => "t3d.seq",
        SimScheme::Base => "t3d.base",
        SimScheme::Ccdp { .. } => "t3d.ccdp",
        SimScheme::InvalidateOnly { .. } => "t3d.inv",
        SimScheme::Mesi => "t3d.mesi",
        SimScheme::Dragon => "t3d.dragon",
    }
}

fn validate(t: &mut Tracer, program: &Program, cfg: &PipelineConfig) -> Result<(), String> {
    t.span("ir.validate", |_| {
        cfg.validate().map_err(|e| e.to_string())?;
        ccdp_ir::validate(program).map_err(|e| e.to_string())
    })
}

fn simulate(
    t: &mut Tracer,
    c: &mut Counts,
    program: &Program,
    layout: Layout,
    cfg: &PipelineConfig,
    machine: t3d_sim::MachineConfig,
    scheme: SimScheme,
) -> Result<SimResult, String> {
    let name = sim_span(&scheme);
    let line_words = machine.line_words;
    let r = t
        .span(name, |_| {
            Simulator::new(program, layout.clone(), machine, scheme, cfg.sim).try_run()
        })
        .map_err(|e| e.to_string())?;
    let s = &r.shard;
    if s.static_proven + s.dynamic_logged + s.declined_budget_unproven > 0 {
        // The run consulted shard verdicts, which the simulator computes
        // lazily inside its run; this call measures the same analysis over
        // the same inputs.
        t.span("analysis.shard", |_| {
            shard_scan(program, &layout, line_words)
        });
    }
    c.absorb(&r);
    if !r.oracle.is_coherent() {
        return Err(format!(
            "{} run read {} stale value(s)",
            r.scheme, r.oracle.stale_reads
        ));
    }
    Ok(r)
}

fn compile(
    t: &mut Tracer,
    program: &Program,
    cfg: &PipelineConfig,
    layout: &Layout,
) -> CcdpArtifacts {
    let stale = t.span("analysis.stale", |_| analyze_stale(program, layout));
    let (transformed, plan) = t.span("prefetch.plan", |_| {
        plan_prefetches(program, layout, &stale, &cfg.target, &cfg.schedule)
    });
    CcdpArtifacts {
        stale,
        transformed,
        plan,
    }
}

/// `ccdp_core::run_seq`, call by call.
pub fn seq(
    t: &mut Tracer,
    c: &mut Counts,
    program: &Program,
    cfg: &PipelineConfig,
) -> Result<SimResult, String> {
    validate(t, program, cfg)?;
    let mut machine = cfg.machine.clone();
    machine.n_pes = 1;
    simulate(
        t,
        c,
        program,
        Layout::new(program, 1),
        cfg,
        machine,
        SimScheme::Sequential,
    )
}

/// `ccdp_core::compare_with_seq`, call by call, inside one `core.compare`
/// span whose self time is the core layer's own work.
pub fn compare(
    t: &mut Tracer,
    c: &mut Counts,
    program: &Program,
    cfg: &PipelineConfig,
    seq: SimResult,
    schemes: &[Scheme],
) -> Result<SchemeMatrix, String> {
    t.span("core.compare", |t| {
        let mut runs = Vec::with_capacity(schemes.len());
        for &scheme in schemes {
            runs.push(run(t, c, program, cfg, scheme)?);
        }
        let stats = |a: &CcdpArtifacts| (a.stale.n_stale(), a.stale.n_shared_reads, a.plan.stats);
        let (stale_reads, shared_reads, plan_stats) = match runs
            .iter()
            .find(|r| r.scheme == Scheme::Ccdp)
            .and_then(|r| r.artifacts.as_ref())
        {
            Some(a) => stats(a),
            None => stats(&compile(t, program, cfg, &cfg.layout_for(program))),
        };
        Ok(SchemeMatrix {
            n_pes: cfg.n_pes,
            seq,
            runs,
            stale_reads,
            shared_reads,
            plan_stats,
        })
    })
}

/// `PipelineConfig::run`, call by call.
fn run(
    t: &mut Tracer,
    c: &mut Counts,
    program: &Program,
    cfg: &PipelineConfig,
    scheme: Scheme,
) -> Result<SchemeRun, String> {
    validate(t, program, cfg)?;
    let layout = cfg.layout_for(program);
    let machine = cfg.machine.clone();
    let (result, artifacts) = match scheme {
        Scheme::Base => (
            simulate(t, c, program, layout, cfg, machine, SimScheme::Base)?,
            None,
        ),
        Scheme::Ccdp => {
            let art = compile(t, program, cfg, &layout);
            if cfg.verify {
                let opt = ccdp_lint::LintOptions::from_schedule(&cfg.schedule);
                let report = t.span("lint.verify", |_| {
                    ccdp_lint::verify(&art.transformed, &art.plan, &layout, &opt)
                });
                c.lint_obligations += report.n_obligations as u64;
                if !report.is_sound() {
                    return Err(format!("CCDP plan has {} lint error(s)", report.errors()));
                }
            }
            let sim = SimScheme::Ccdp {
                plan: art.plan.clone(),
            };
            (
                simulate(t, c, &art.transformed, layout, cfg, machine, sim)?,
                Some(art),
            )
        }
        Scheme::Mesi | Scheme::Dragon => {
            if cfg.verify {
                let report = t.span("lint.verify", |_| {
                    ccdp_lint::verify_hardware(program, &layout)
                });
                c.lint_obligations += report.n_obligations as u64;
                if !report.is_sound() {
                    return Err(format!(
                        "{} audit has {} lint error(s)",
                        scheme.name(),
                        report.errors()
                    ));
                }
            }
            let sim = if scheme == Scheme::Mesi {
                SimScheme::Mesi
            } else {
                SimScheme::Dragon
            };
            (simulate(t, c, program, layout, cfg, machine, sim)?, None)
        }
        Scheme::InvalidateOnly => return Err("the benchmark never runs INV".to_string()),
    };
    Ok(SchemeRun {
        scheme,
        result,
        artifacts,
    })
}

/// The per-layer metrics of a traced replay of `ops` operations: host time
/// summed over every span of a layer, and the counters beside them.
pub fn layer_metrics(t: &Tracer, c: &Counts, ops: usize) -> Vec<Metric> {
    let spans = |name: &str| t.spans.iter().filter(|s| s.name == name).count();
    let ms = |metric: &'static str, span: &str| Metric::new(metric, t.total_ms(span), spans(span));
    let count = |metric: &'static str, v: u64| Metric::new(metric, v as f64, ops);
    let sims = ["t3d.seq", "t3d.base", "t3d.ccdp", "t3d.mesi", "t3d.dragon"];
    let sim_ms: f64 = sims.iter().map(|s| t.total_ms(s)).sum();
    let sim_spans: usize = sims.iter().map(|s| spans(s)).sum();
    let attempted = c.shard_proven + c.shard_logged;
    let useful = if attempted == 0 {
        0.0
    } else {
        (attempted - c.shard_conflicts) as f64 / attempted as f64
    };
    vec![
        ms("t3d.seq_ms", "t3d.seq"),
        ms("t3d.base_ms", "t3d.base"),
        ms("t3d.ccdp_ms", "t3d.ccdp"),
        ms("t3d.mesi_ms", "t3d.mesi"),
        ms("t3d.dragon_ms", "t3d.dragon"),
        Metric::new(
            "t3d.ns_per_access",
            sim_ms * 1e6 / c.accesses.max(1) as f64,
            sim_spans,
        ),
        count("t3d.accesses", c.accesses),
        count("t3d.sim_cycles", c.sim_cycles),
        count("t3d.shard.proven", c.shard_proven),
        count("t3d.shard.logged", c.shard_logged),
        count("t3d.shard.conflicts", c.shard_conflicts),
        count("t3d.shard.attempted", attempted),
        Metric::new("t3d.shard.useful_ratio", useful, attempted as usize),
        ms("analysis.shard_ms", "analysis.shard"),
        ms("ir.parse_ms", "ir.parse"),
        ms("ir.validate_ms", "ir.validate"),
        ms("analysis.stale_ms", "analysis.stale"),
        ms("prefetch.plan_ms", "prefetch.plan"),
        ms("lint.verify_ms", "lint.verify"),
        count("lint.obligations", c.lint_obligations),
        ms("json.encode_ms", "json.encode"),
        count("json.bytes", c.json_bytes),
        Metric::new(
            "core.self_ms",
            t.self_ms("core.compare"),
            spans("core.compare"),
        ),
        count("bench.replayed_ops", ops as u64),
    ]
}
