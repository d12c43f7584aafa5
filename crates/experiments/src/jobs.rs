//! The experiment matrix as schedulable [`harness`] jobs.
//!
//! Each paper figure/table becomes one or more independent jobs (one per
//! generation where the experiment sweeps G1 and G2 separately). Jobs
//! write their CSV/JSON artifacts atomically and return the rendered
//! table text as their summary; the `repro` binary prints summaries in
//! deterministic matrix order after the scheduler finishes, so parallel
//! execution never interleaves output.
//!
//! For fault-handling tests and CI drills, [`apply_injection`] wraps a
//! named job so it panics or hangs instead of running — exercising the
//! scheduler's panic isolation and watchdog paths end to end.

use std::path::{Path, PathBuf};
use std::time::Duration;

use harness::{write_atomic, Job, JobCtx, JobError, JobOutput};
use optane_core::Generation;

use crate::common::{log_sweep, ExpError, ExpResult, MetricsSpec};
use crate::{
    e0_bandwidth, e10_pmcheck, e11_faultsim, e12_cluster, e13_rebalance, e15_mt, e1_read_buffer,
    e2_prefetch, e3_write_amp, e4_wb_hit, e5_rap, e6_latency, e7_cceh, e8_btree, e9_redirect,
    ext_mixes, table1,
};

/// Run scale: how much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI scale: shrinks the validation suites (`pmcheck`, `faultsim`).
    Smoke,
    /// Default scale: seconds per experiment.
    Default,
    /// Paper scale: larger working sets and op counts.
    Full,
}

impl Scale {
    /// The manifest tag for this scale.
    pub fn tag(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    fn full(&self) -> bool {
        matches!(self, Scale::Full)
    }

    fn smoke(&self) -> bool {
        matches!(self, Scale::Smoke)
    }
}

/// All experiment names, in canonical matrix order.
pub const EXPERIMENT_NAMES: &[&str] = &[
    "e0",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "table1",
    "e7",
    "e8",
    "mixes",
    "pmcheck",
    "faultsim",
    "e9",
    "cluster",
    "rebalance",
    "e15",
];

fn gen_suffix(gen: Generation) -> String {
    format!("{gen}").to_lowercase()
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .to_lowercase()
}

fn exp_err(name: &str, e: ExpError) -> JobError {
    JobError::Failed(format!("{name}: {e}"))
}

/// Atomically writes one result's CSV into `out_dir`; returns the
/// artifact path relative to `out_dir`.
fn emit_csv(out_dir: &Path, r: &ExpResult) -> Result<PathBuf, JobError> {
    let rel = PathBuf::from(format!("{}.csv", slug(&r.name)));
    write_atomic(&out_dir.join(&rel), r.to_csv().as_bytes())?;
    Ok(rel)
}

/// Packages a set of results as a validated job output: CSVs written
/// atomically, tables concatenated into the summary. Results carrying a
/// `simwatch` time series additionally emit a `metrics_<slug>.jsonl`
/// artifact; the `repro` binary concatenates those (in matrix order)
/// into the file named by `--metrics`.
fn finish(out_dir: &Path, results: &[ExpResult]) -> Result<JobOutput, JobError> {
    let mut out = JobOutput::ok(String::new());
    let mut summary = String::new();
    for r in results {
        summary.push_str(&r.to_table());
        summary.push('\n');
        out.artifacts.push(emit_csv(out_dir, r)?);
        if let Some(series) = &r.metrics_jsonl {
            let rel = PathBuf::from(format!("metrics_{}.jsonl", slug(&r.name)));
            write_atomic(&out_dir.join(&rel), series.as_bytes())?;
            out.artifacts.push(rel);
        }
    }
    out.summary = summary.trim_end().to_string();
    Ok(out)
}

type RunFn = Box<dyn Fn(&JobCtx) -> Result<JobOutput, JobError> + Send + Sync>;

/// A closure-backed experiment job.
pub struct ExperimentJob {
    id: String,
    run: RunFn,
}

impl ExperimentJob {
    fn boxed(id: impl Into<String>, run: RunFn) -> Box<dyn Job> {
        Box::new(ExperimentJob { id: id.into(), run })
    }
}

impl Job for ExperimentJob {
    fn id(&self) -> String {
        self.id.clone()
    }

    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError> {
        (self.run)(ctx)
    }
}

/// Builds the job list for a selection of experiment names (`"all"`
/// selects everything), generations, and scale. Jobs are returned in
/// canonical matrix order; ids look like `e2:g1` (per-generation) or
/// `table1` (generation-independent). When `metrics` is set, the
/// sampling-capable experiments (E1, E3) emit `simwatch` time-series
/// artifacts at the requested interval.
pub fn matrix(
    selection: &[String],
    gens: &[Generation],
    scale: Scale,
    out_dir: &Path,
    metrics: Option<MetricsSpec>,
) -> Vec<Box<dyn Job>> {
    let run_all = selection.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || selection.iter().any(|w| w == name);
    let max_wss: u64 = if scale.full() { 1 << 30 } else { 64 << 20 };
    let mut jobs: Vec<Box<dyn Job>> = Vec::new();
    let out = out_dir.to_path_buf();

    if wants("e0") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e0:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e0_bandwidth::run(&e0_bandwidth::E0Params {
                        generation: gen,
                        blocks_per_thread: if scale.full() { 50_000 } else { 10_000 },
                        ..Default::default()
                    });
                    finish(&out, &[r])
                }),
            ));
        }
    }
    if wants("e1") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e1:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e1_read_buffer::run(&e1_read_buffer::E1Params {
                        generation: gen,
                        metrics,
                        ..Default::default()
                    });
                    finish(&out, &[r])
                }),
            ));
        }
    }
    if wants("e2") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e2:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e2_prefetch::run(&e2_prefetch::E2Params {
                        generation: gen,
                        wss_points: log_sweep(4 << 10, max_wss, 1),
                        ..Default::default()
                    });
                    finish(&out, &r)
                }),
            ));
        }
    }
    if wants("e3") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e3:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e3_write_amp::run(&e3_write_amp::E3Params {
                        generation: gen,
                        metrics,
                        ..Default::default()
                    });
                    finish(&out, &[r])
                }),
            ));
        }
    }
    if wants("e4") {
        let out = out.clone();
        jobs.push(ExperimentJob::boxed(
            "e4",
            Box::new(move |_ctx| {
                let r = e4_wb_hit::run(&e4_wb_hit::E4Params::default());
                finish(&out, &[r])
            }),
        ));
    }
    if wants("e5") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e5:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e5_rap::run(&e5_rap::E5Params {
                        generation: gen,
                        iters: if scale.full() { 20_000 } else { 3000 },
                        ..Default::default()
                    })
                    .map_err(|e| exp_err("e5", e))?;
                    finish(&out, &r)
                }),
            ));
        }
    }
    if wants("e6") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e6:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e6_latency::run(&e6_latency::E6Params {
                        generation: gen,
                        wss_points: log_sweep(4 << 10, max_wss, 1),
                        ..Default::default()
                    })
                    .map_err(|e| exp_err("e6", e))?;
                    finish(&out, &r)
                }),
            ));
        }
    }
    if wants("table1") {
        let out = out.clone();
        jobs.push(ExperimentJob::boxed(
            "table1",
            Box::new(move |_ctx| {
                let r = table1::run(&table1::Table1Params {
                    inserts: if scale.full() { 2_000_000 } else { 100_000 },
                    ..Default::default()
                });
                let text = format!("{r}");
                write_atomic(&out.join("table1.txt"), text.as_bytes())?;
                let summary =
                    format!("# Table 1: time breakdown of key insertion in CCEH (G1)\n{text}");
                Ok(JobOutput::ok(summary).with_artifact("table1.txt"))
            }),
        ));
    }
    if wants("e7") {
        let out = out.clone();
        jobs.push(ExperimentJob::boxed(
            "e7",
            Box::new(move |_ctx| {
                let r = e7_cceh::run(&e7_cceh::E7Params {
                    inserts_per_worker: if scale.full() { 200_000 } else { 20_000 },
                    ..Default::default()
                })
                .map_err(|e| exp_err("e7", e))?;
                finish(&out, &r)
            }),
        ));
    }
    if wants("e8") {
        let out = out.clone();
        let gens_owned = gens.to_vec();
        jobs.push(ExperimentJob::boxed(
            "e8",
            Box::new(move |_ctx| {
                let r = e8_btree::run(&e8_btree::E8Params {
                    inserts: if scale.full() { 400_000 } else { 40_000 },
                    generations: gens_owned.clone(),
                    ..Default::default()
                });
                finish(&out, &r)
            }),
        ));
    }
    if wants("mixes") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("mixes:{}", gen_suffix(gen)),
                Box::new(move |ctx| {
                    // The checkpoint-aware path: the longest job of the
                    // matrix resumes mid-run after an interruption.
                    let r = ext_mixes::run_resumable(
                        &ext_mixes::MixParams {
                            generation: gen,
                            records: if scale.full() { 500_000 } else { 50_000 },
                            ops: if scale.full() { 500_000 } else { 50_000 },
                            ..Default::default()
                        },
                        ctx,
                    )?;
                    finish(&out, &[r])
                }),
            ));
        }
    }
    if wants("pmcheck") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("pmcheck:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let outcomes = e10_pmcheck::run(&e10_pmcheck::E10Params {
                        generation: gen,
                        cceh_inserts: if scale.full() {
                            5000
                        } else if scale.smoke() {
                            150
                        } else {
                            400
                        },
                        btree_inserts: if scale.full() {
                            2000
                        } else if scale.smoke() {
                            120
                        } else {
                            300
                        },
                        ..Default::default()
                    });
                    let mut summary = format!("# pmcheck: persist-ordering analysis, {gen}\n");
                    let mut text = String::new();
                    let mut validated = true;
                    for o in &outcomes {
                        summary.push_str(&o.summary());
                        summary.push('\n');
                        text.push_str(&format!("== {gen} ==\n"));
                        text.push_str(&o.report.to_text());
                        text.push('\n');
                        validated &= o.validated;
                    }
                    summary.push_str(if validated {
                        "pmcheck cross-validation: all verdicts agree with simulated crash outcomes"
                    } else {
                        "pmcheck cross-validation: MISMATCH between checker verdicts and crash outcomes"
                    });
                    let sfx = gen_suffix(gen);
                    let json_rel = PathBuf::from(format!("pmcheck_{sfx}.json"));
                    let txt_rel = PathBuf::from(format!("pmcheck_{sfx}.txt"));
                    write_atomic(&out.join(&json_rel), e10_pmcheck::to_json(&outcomes).as_bytes())?;
                    write_atomic(&out.join(&txt_rel), text.as_bytes())?;
                    Ok(JobOutput {
                        artifacts: vec![json_rel, txt_rel],
                        summary,
                        validated,
                    })
                }),
            ));
        }
    }
    if wants("faultsim") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("faultsim:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let params = if scale.smoke() {
                        e11_faultsim::E11Params::smoke(gen)
                    } else {
                        e11_faultsim::E11Params {
                            generation: gen,
                            cceh_inserts: if scale.full() { 2000 } else { 240 },
                            btree_inserts: if scale.full() { 1000 } else { 160 },
                            ..Default::default()
                        }
                    };
                    let outcomes =
                        e11_faultsim::run(&params).map_err(|e| exp_err("faultsim", e))?;
                    let mut summary = format!(
                        "# faultsim: fault injection + crash-state exploration, {gen}\n"
                    );
                    let mut validated = true;
                    for o in &outcomes {
                        summary.push_str(&o.summary());
                        summary.push('\n');
                        validated &= o.validated;
                    }
                    summary.push_str(if validated {
                        "faultsim cross-validation: all faultsim verdicts agree with crash-state exploration"
                    } else {
                        "faultsim cross-validation: MISMATCH between checker verdicts and explored crash states"
                    });
                    let json_rel = PathBuf::from(format!("faultsim_{}.json", gen_suffix(gen)));
                    write_atomic(
                        &out.join(&json_rel),
                        e11_faultsim::to_json(&outcomes).as_bytes(),
                    )?;
                    Ok(JobOutput {
                        artifacts: vec![json_rel],
                        summary,
                        validated,
                    })
                }),
            ));
        }
    }
    if wants("e9") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e9:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let threads = match gen {
                        Generation::G1 => vec![1, 2, 4, 8, 12, 16],
                        Generation::G2 => vec![1, 2, 4, 8, 12, 16, 20, 24],
                    };
                    let p = e9_redirect::E9Params {
                        generation: gen,
                        wss_points: log_sweep(4 << 10, max_wss, 1),
                        visits: if scale.full() { 200_000 } else { 40_000 },
                        threads,
                        ..Default::default()
                    };
                    let f13 = e9_redirect::run_fig13(&p);
                    let f14 = e9_redirect::run_fig14(&p);
                    let mut all = vec![f13];
                    all.extend(f14);
                    finish(&out, &all)
                }),
            ));
        }
    }
    if wants("cluster") {
        let out = out.clone();
        jobs.push(ExperimentJob::boxed(
            "cluster",
            Box::new(move |ctx| {
                let mut p = if scale.smoke() {
                    e12_cluster::E12Params::smoke(ctx.seed)
                } else {
                    e12_cluster::E12Params {
                        ops: if scale.full() { 30_000 } else { 6_000 },
                        seed: ctx.seed,
                        ..Default::default()
                    }
                };
                p.metrics = metrics;
                let r = e12_cluster::run(&p).map_err(|e| exp_err("cluster", e))?;
                let mut output = finish(&out, &r.results)?;
                let report_rel = PathBuf::from("cluster_availability.txt");
                write_atomic(&out.join(&report_rel), r.availability_report.as_bytes())?;
                output.artifacts.push(report_rel);
                output.validated = r.validated;
                output.summary.push_str(if r.validated {
                    "\ncluster: every request answered, zero acknowledged-write loss"
                } else {
                    "\ncluster: VALIDATION FAILED (loss, hang, or availability < 99%)"
                });
                Ok(output)
            }),
        ));
    }
    if wants("rebalance") {
        let out = out.clone();
        jobs.push(ExperimentJob::boxed(
            "rebalance",
            Box::new(move |ctx| {
                let mut p = if scale.smoke() {
                    e13_rebalance::E13Params::smoke(ctx.seed)
                } else {
                    e13_rebalance::E13Params {
                        ops: if scale.full() { 20_000 } else { 4_000 },
                        seed: ctx.seed,
                        ..Default::default()
                    }
                };
                p.metrics = metrics;
                let r = e13_rebalance::run(&p).map_err(|e| exp_err("rebalance", e))?;
                let mut output = finish(&out, &r.results)?;
                let report_rel = PathBuf::from("rebalance_report.txt");
                write_atomic(&out.join(&report_rel), r.rebalance_report.as_bytes())?;
                output.artifacts.push(report_rel);
                output.validated = r.validated;
                output.summary.push_str(if r.validated {
                    "\nrebalance: every drill held the oracles — zero acked-write loss, \
                     no stale-epoch ack, exactly-once ownership"
                } else {
                    "\nrebalance: VALIDATION FAILED (oracle violation, unfinished migration, \
                     or availability < 99%)"
                });
                Ok(output)
            }),
        ));
    }
    if wants("e15") {
        for &gen in gens {
            let out = out.clone();
            jobs.push(ExperimentJob::boxed(
                format!("e15:{}", gen_suffix(gen)),
                Box::new(move |_ctx| {
                    let r = e15_mt::run(&e15_mt::E15Params {
                        generation: gen,
                        threads: if scale.smoke() {
                            vec![1, 2, 4]
                        } else {
                            vec![1, 2, 4, 8, 16]
                        },
                        blocks_per_thread: if scale.full() { 4000 } else { 800 },
                        rap_iters_per_thread: if scale.full() { 2000 } else { 400 },
                        ops_per_thread: if scale.full() { 400 } else { 80 },
                        ..Default::default()
                    })
                    .map_err(|e| exp_err("e15", e))?;
                    finish(&out, &r)
                }),
            ));
        }
    }
    jobs
}

/// What [`apply_injection`] makes the target job do instead of running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Panic immediately (exercises `catch_unwind` isolation).
    Panic,
    /// Hang until the watchdog cancels the attempt (exercises the
    /// deadline path).
    Hang,
}

struct InjectedJob {
    inner: Box<dyn Job>,
    mode: Inject,
}

impl Job for InjectedJob {
    fn id(&self) -> String {
        self.inner.id()
    }

    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError> {
        match self.mode {
            Inject::Panic => panic!("injected panic (--inject) in job {}", ctx.job_id),
            Inject::Hang => {
                // Cooperative hang: spins until the watchdog fires, so
                // the worker thread is reclaimed rather than abandoned.
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(JobError::Failed("injected hang cancelled".into()))
            }
        }
    }
}

/// Replaces the job whose id equals `target` with a faulty wrapper.
/// Returns `false` when no job matches.
pub fn apply_injection(jobs: &mut Vec<Box<dyn Job>>, target: &str, mode: Inject) -> bool {
    for j in jobs.iter_mut() {
        if j.id() == target {
            let inner = std::mem::replace(
                j,
                ExperimentJob::boxed("placeholder", Box::new(|_| Ok(JobOutput::ok("")))),
            );
            *j = Box::new(InjectedJob { inner, mode });
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_full_selection_in_order() {
        let gens = [Generation::G1, Generation::G2];
        let out = PathBuf::from("unused");
        let jobs = matrix(&["all".to_string()], &gens, Scale::Smoke, &out, None);
        let ids: Vec<String> = jobs.iter().map(|j| j.id()).collect();
        // Per-generation experiments appear twice, singletons once.
        assert!(ids.contains(&"e0:g1".to_string()));
        assert!(ids.contains(&"e0:g2".to_string()));
        assert!(ids.contains(&"table1".to_string()));
        assert!(ids.contains(&"e7".to_string()));
        assert!(ids.contains(&"mixes:g2".to_string()));
        assert!(ids.contains(&"faultsim:g1".to_string()));
        assert!(ids.contains(&"cluster".to_string()));
        assert!(ids.contains(&"rebalance".to_string()));
        assert!(ids.contains(&"e15:g1".to_string()));
        assert!(ids.contains(&"e15:g2".to_string()));
        assert_eq!(ids.len(), 28, "11 per-gen × 2 + 6 singletons: {ids:?}");
        // Canonical order: e0 before e9, pmcheck before faultsim.
        let pos = |id: &str| ids.iter().position(|x| x == id).unwrap();
        assert!(pos("e0:g1") < pos("e9:g1"));
        assert!(pos("pmcheck:g1") < pos("faultsim:g1"));
        assert!(pos("e9:g1") < pos("cluster"));
        assert!(pos("cluster") < pos("rebalance"));
        assert!(pos("rebalance") < pos("e15:g1"));
    }

    #[test]
    fn selection_filters_jobs() {
        let gens = [Generation::G1];
        let out = PathBuf::from("unused");
        let jobs = matrix(
            &["e0".to_string(), "table1".to_string()],
            &gens,
            Scale::Default,
            &out,
            None,
        );
        let ids: Vec<String> = jobs.iter().map(|j| j.id()).collect();
        assert_eq!(ids, vec!["e0:g1".to_string(), "table1".to_string()]);
    }

    #[test]
    fn injection_replaces_the_target_job() {
        let gens = [Generation::G1];
        let out = std::env::temp_dir();
        let mut jobs = matrix(&["e0".to_string()], &gens, Scale::Default, &out, None);
        assert!(apply_injection(&mut jobs, "e0:g1", Inject::Panic));
        assert!(!apply_injection(&mut jobs, "nope", Inject::Hang));
        // The injected job panics; run under catch_unwind to observe.
        let ctx = JobCtx::detached("e0:g1", 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jobs[0].run(&ctx)));
        assert!(r.is_err(), "injected job panics");
    }
}
