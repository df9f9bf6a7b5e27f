//! End-to-end training benchmark.
//!
//! ```text
//! trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload trains a Table-1 reproduction config through the public
//! `EgeriaTrainer::train` API for its full epoch schedule. The training
//! trajectory is pinned to the reproduction seed 42, so the quality metric,
//! the fingerprint and every exact count repeat across runs of one build;
//! `--seed` picks the batches the direct layer calls are probed on. With
//! `--trace 0` the run measures the end-to-end metrics with telemetry off;
//! with `--trace 1` it trains once untraced and once traced and adds the
//! direct layer calls, printing the per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md for every metric.

mod layers;
mod stats;
mod timeline;

use egeria_bench::experiments::default_egeria;
use egeria_bench::workloads::{Kind, Workload};
use egeria_core::trainer::{EgeriaTrainer, TrainReport, TrainerOptions};
use egeria_core::Telemetry;
use egeria_obs::TraceEvent;
use egeria_tensor::Result;
use stats::{median, percentile, sorted, Fingerprint};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use timeline::{attribute, classify, CallLog, Phase, Source, Timed};

/// The Table-1 reproduction seed every workload trains at.
const TRAJECTORY_SEED: u64 = 42;
/// Set-up probes made before and again after the measured training, so
/// `setup_s` (the median over these and the measured runs' own set-up)
/// samples the machine at both ends of the run.
const SETUP_PROBES_EACH_SIDE: usize = 15;
/// Step-time percentile reported as `step_ms_p98`.
const TAIL_PERCENTILE: f64 = 98.0;
/// Where per-run scratch (activation caches) and the fingerprint record
/// live, relative to the working directory.
const WORK_DIR: &str = ".trainbench";

/// A workload: a Table-1 model with Egeria on or off. Why each one is in
/// the benchmark is recorded in `BENCHMARK.json` and README.md.
#[derive(Clone, Copy)]
struct Spec {
    name: &'static str,
    kind: Kind,
    egeria: bool,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "resnet56_egeria",
        kind: Kind::ResNet56,
        egeria: true,
    },
    Spec {
        name: "transformer_base_egeria",
        kind: Kind::TransformerBase,
        egeria: true,
    },
    Spec {
        name: "resnet56_vanilla",
        kind: Kind::ResNet56,
        egeria: false,
    },
];

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = *WORKLOADS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
            format!("unknown workload {workload}; one of: {}", names.join(", "))
        })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn non_finite(&self) -> usize {
        self.0.iter().filter(|(_, v, _)| !v.is_finite()).count()
    }

    /// The `metrics` object; a non-finite value (already counted as a
    /// failed check) prints as 0 to keep the line valid JSON.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operations attempted and failed over the run, with the reasons.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    /// Counts `attempted` operations of which `failed` went wrong.
    fn count(&mut self, what: &str, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!("{what}: {failed} of {attempted}"));
        }
    }
}

/// A scratch directory under [`WORK_DIR`], removed on drop.
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let root = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not-yet-existing directory inside the scratch root.
    fn dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One whole `train()` call and what was observed around it.
struct Run {
    report: TrainReport,
    calls: Vec<timeline::Call>,
    /// Seconds from workload construction to the end of the first step.
    setup_s: f64,
    /// Wall seconds of the `train()` call.
    train_s: f64,
    /// When `train()` returned, on the call log's clock.
    end_s: f64,
    expected_steps: usize,
    batch_size: usize,
    param_counts: Vec<usize>,
    trainer: EgeriaTrainer,
    train_set: Timed,
}

/// Builds the workload from scratch and trains it. With `stop_after_first`
/// the run ends as its first step ends (a set-up probe) and the returned
/// error is expected.
fn train(spec: Spec, telemetry: Telemetry, cache_dir: PathBuf, stop_after_first: bool) -> Result<Run> {
    let origin = Instant::now();
    let w = Workload::make(spec.kind, TRAJECTORY_SEED);
    let loader = w.loader(TRAJECTORY_SEED.wrapping_add(1000));
    let val_loader = w.val_loader();
    let expected_steps = w.epochs * loader.batches_per_epoch();
    let batch_size = w.batch_size;
    let param_counts = w.model.modules().iter().map(|m| m.param_count).collect();
    let optimizer = w.optimizer();
    let schedule = w.schedule();
    let log = CallLog::new(origin, stop_after_first.then_some(1));
    let train_set = Timed::new(w.train, Arc::clone(&log), Source::Train);
    let val_set = Timed::new(w.val, Arc::clone(&log), Source::Val);
    let mut trainer = EgeriaTrainer::new(
        w.model,
        optimizer,
        schedule,
        TrainerOptions {
            epochs: w.epochs,
            egeria: spec.egeria.then(|| default_egeria(spec.kind)),
            lr_per_iteration: w.lr_per_iteration,
            cache_dir: Some(cache_dir.clone()),
            telemetry,
            ..Default::default()
        },
    );
    let started = origin.elapsed().as_secs_f64();
    let result = trainer.train(&train_set, &loader, Some((&val_set, &val_loader)));
    let end_s = origin.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let report = match result {
        Ok(r) => r,
        // The probe's own stop, once the first step has ended.
        Err(_) if stop_after_first && log.train_call_at(1).is_some() => TrainReport::default(),
        Err(e) => return Err(e),
    };
    Ok(Run {
        report,
        calls: log.calls(),
        setup_s: log.train_call_at(1).unwrap_or(end_s),
        train_s: end_s - started,
        end_s,
        expected_steps,
        batch_size,
        param_counts,
        trainer,
        train_set,
    })
}

/// Seconds from construction to the end of the first step, with the run
/// stopped right there.
fn setup_probe(spec: Spec, cache_dir: PathBuf) -> Result<f64> {
    train(spec, Telemetry::disabled(), cache_dir, true).map(|run| run.setup_s)
}

/// Digest of everything a change to the arithmetic or the freezing
/// decisions would alter: per-epoch loss and metric bits, freeze/unfreeze
/// events, and cache hit/miss counts.
fn fingerprint(r: &TrainReport) -> String {
    let mut f = Fingerprint::new();
    for e in &r.epochs {
        f.f32(e.train_loss);
        f.f32(e.val_loss.unwrap_or(f32::NAN));
        f.f32(e.val_metric.unwrap_or(f32::NAN));
    }
    for e in &r.events {
        f.u64(e.iteration as u64);
        f.bytes(e.kind.as_bytes());
        f.u64(e.prefix as u64);
    }
    f.u64(r.cache_stats.hits as u64);
    f.u64(r.cache_stats.misses as u64);
    f.u64(r.iterations.len() as u64);
    f.hex()
}

/// Compares this run's fingerprint with the one recorded by the first run
/// of the same workload, ISA and benchmark binary in this directory, and
/// records it if none exists. `Ok(false)` means the run diverged from its
/// set.
fn matches_recorded(workload: &str, isa: &str, fp: &str) -> std::io::Result<bool> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let mut build = Fingerprint::new();
    build.bytes(&exe);
    let dir = Path::new(WORK_DIR).join("fingerprints");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-{isa}-{}", build.hex()));
    match std::fs::read_to_string(&path) {
        Ok(recorded) => Ok(recorded.trim() == fp),
        Err(_) => {
            std::fs::write(&path, fp)?;
            Ok(true)
        }
    }
}

/// Output checks shared by every measured run.
fn check_run(run: &Run, checks: &mut Checks) {
    let r = &run.report;
    let train_calls = run.calls.iter().filter(|c| c.source == Source::Train).count();
    checks.count(
        "training steps (epochs x batches per epoch), reported and timed",
        run.expected_steps,
        run.expected_steps
            .abs_diff(r.iterations.len())
            .max(run.expected_steps.abs_diff(train_calls)),
    );
    let losses: Vec<f32> = r
        .epochs
        .iter()
        .flat_map(|e| [Some(e.train_loss), e.val_loss, e.val_metric])
        .flatten()
        .collect();
    checks.count(
        "finite losses and metrics",
        losses.len(),
        losses.iter().filter(|v| !v.is_finite()).count(),
    );
    checks.count(
        "plasticity evaluations (eval_skips)",
        r.plasticity.len() + r.eval_skips,
        r.eval_skips,
    );
    let c = &r.cache_stats;
    checks.count(
        "cache lookups and writes (write_errors, corrupt_entries, prefetch_errors)",
        c.hits + c.misses,
        c.write_errors + c.corrupt_entries + c.prefetch_errors,
    );
}

fn final_metric(r: &TrainReport) -> f64 {
    r.epochs
        .last()
        .and_then(|e| e.val_metric)
        .map(f64::from)
        .unwrap_or(f64::NAN)
}

/// Peak resident set of this process (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

struct Context {
    isa: &'static str,
    pool_threads: usize,
    nproc: usize,
}

impl Context {
    /// Refuses to run under any `EGERIA_*` override: the benchmark sets
    /// none, and each one changes what is measured.
    fn capture() -> std::result::Result<Context, String> {
        let overrides: Vec<String> = std::env::vars()
            .filter(|(k, _)| k.starts_with("EGERIA_"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !overrides.is_empty() {
            return Err(format!(
                "refusing to run with EGERIA_* overrides present: {}",
                overrides.join(" ")
            ));
        }
        Ok(Context {
            isa: egeria_tensor::simd::isa().name(),
            pool_threads: egeria_tensor::ThreadPool::global().threads(),
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        })
    }
}

/// The end-to-end pass: set-up probes, then whole training runs (at least
/// one) until `seconds` of training have been measured.
fn end_to_end(args: &Args, scratch: &mut Scratch, metrics: &mut Metrics, checks: &mut Checks) -> Result<String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES_EACH_SIDE {
        setups.push(setup_probe(args.spec, scratch.dir())?);
    }
    let mut runs: Vec<Run> = Vec::new();
    while runs.is_empty() || runs.iter().map(|r| r.train_s).sum::<f64>() < args.seconds {
        let run = train(args.spec, Telemetry::disabled(), scratch.dir(), false)?;
        check_run(&run, checks);
        setups.push(run.setup_s);
        runs.push(run);
    }
    for _ in 0..SETUP_PROBES_EACH_SIDE {
        setups.push(setup_probe(args.spec, scratch.dir())?);
    }
    let samples: usize = runs.iter().map(|r| r.report.iterations.len() * r.batch_size).sum();
    let wall: f64 = runs.iter().map(|r| r.train_s).sum();
    let steps = sorted(
        &runs
            .iter()
            .flat_map(|r| attribute(&r.calls, r.end_s).steps_ms)
            .collect::<Vec<_>>(),
    );
    checks.count(
        "step_ms_p98 with at least ten steps beyond it",
        1,
        usize::from(stats::beyond(steps.len(), TAIL_PERCENTILE) < stats::MIN_BEYOND),
    );
    let fps: Vec<String> = runs.iter().map(|r| fingerprint(&r.report)).collect();
    checks.count(
        "repeated runs with the first run's fingerprint",
        fps.len(),
        fps.iter().filter(|f| **f != fps[0]).count(),
    );
    metrics.push("train_samples_per_s", samples as f64 / wall, "1/s");
    metrics.push("step_ms_p50", percentile(&steps, 50.0).unwrap_or(f64::NAN), "ms");
    metrics.push("step_ms_p98", percentile(&steps, TAIL_PERCENTILE).unwrap_or(f64::NAN), "ms");
    metrics.push("val_metric_final", final_metric(&runs[0].report), "ratio");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
    metrics.push("setup_s", median(&setups), "s");
    let s = sorted(&setups);
    eprintln!(
        "trainbench: {} run(s), {} steps (p98 leaves {} beyond), {} set-up samples {:.1}..{:.1} ms",
        runs.len(),
        steps.len(),
        stats::beyond(steps.len(), TAIL_PERCENTILE),
        s.len(),
        s[0] * 1e3,
        s[s.len() - 1] * 1e3,
    );
    Ok(fps[0].clone())
}

fn span_ms(events: &[TraceEvent], kind: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .filter_map(|e| e.dur_us.map(|d| d as f64 / 1e3))
        .collect()
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer pass: an untraced run (trainer phases, freezer, cache,
/// reference and data counts), a traced run (existing spans and counters),
/// and the direct layer calls.
fn per_layer(args: &Args, scratch: &mut Scratch, metrics: &mut Metrics, checks: &mut Checks) -> Result<String> {
    let mut plain = train(args.spec, Telemetry::disabled(), scratch.dir(), false)?;
    check_run(&plain, checks);
    let telemetry = Telemetry::enabled();
    let traced = train(args.spec, telemetry.clone(), scratch.dir(), false)?;
    check_run(&traced, checks);
    let fp = fingerprint(&plain.report);
    checks.count(
        "traced run with the untraced run's fingerprint",
        1,
        usize::from(fingerprint(&traced.report) != fp),
    );

    // Trainer phases: wrapper timestamps joined with the report.
    let r = &plain.report;
    let steps = attribute(&plain.calls, plain.end_s);
    let phases = classify(r);
    checks.count(
        "timed steps matching reported iterations",
        phases.len(),
        usize::from(steps.steps_ms.len() != phases.len()),
    );
    let n = phases.len();
    for (phase, name) in [
        (Phase::Full, "full"),
        (Phase::Probe, "probe"),
        (Phase::Fill, "fill"),
        (Phase::Cached, "cached"),
    ] {
        let ms: Vec<f64> = steps
            .steps_ms
            .iter()
            .zip(&phases)
            .filter(|(_, p)| **p == phase)
            .map(|(ms, _)| *ms)
            .collect();
        metrics.push(format!("trainer.{name}_step_ms_p50"), median(&ms), "ms");
        if phase != Phase::Full {
            metrics.push(format!("trainer.{name}_share"), share(ms.len(), n), "ratio");
        }
    }
    metrics.push("trainer.eval_ms_per_epoch", median(&steps.evals_ms), "ms");

    // Freezer: exact counts.
    let total_params: usize = plain.param_counts.iter().sum();
    let frozen_param_steps: usize = timeline::prefixes_run_under(r)
        .iter()
        .map(|&k| plain.param_counts.iter().take(usize::from(k)).sum::<usize>())
        .sum();
    let final_prefix = r.epochs.last().map(|e| e.frozen_prefix).unwrap_or(0);
    metrics.push("freezer.events", r.events.len() as f64, "count");
    metrics.push("freezer.final_prefix", final_prefix as f64, "count");
    metrics.push(
        "freezer.frozen_param_step_share",
        share(frozen_param_steps, total_params * n),
        "ratio",
    );

    // Cache and reference: counters from the report.
    let c = &r.cache_stats;
    metrics.push("cache.hit_ratio", share(c.hits, c.hits + c.misses), "ratio");
    metrics.push("cache.disk_mb_written", c.disk_bytes_written as f64 / 1048576.0, "MiB");
    metrics.push("cache.disk_reads", c.disk_reads as f64, "count");
    metrics.push(
        "cache.errors",
        (c.write_errors + c.corrupt_entries + c.prefetch_errors) as f64,
        "count",
    );
    let rs = &r.reference_stats;
    metrics.push("reference.generations", rs.generations as f64, "count");
    metrics.push(
        "reference.generate_ms_mean",
        if rs.generations == 0 {
            0.0
        } else {
            rs.total_generation_time.as_secs_f64() * 1e3 / rs.generations as f64
        },
        "ms",
    );
    metrics.push("reference.forwards", rs.forwards as f64, "count");
    metrics.push("reference.eval_skips", r.eval_skips as f64, "count");

    // Data layer: time inside the wrapped datasets.
    let train_busy: Vec<f64> = plain
        .calls
        .iter()
        .filter(|c| c.source == Source::Train)
        .map(|c| c.busy_s * 1e3)
        .collect();
    let busy: f64 = plain.calls.iter().map(|c| c.busy_s).sum();
    metrics.push("data.materialize_ms_p50", median(&train_busy), "ms");
    metrics.push("data.busy_share", busy / plain.train_s, "ratio");

    // Traced run: existing spans and counters only.
    let (events, dropped) = telemetry.trace_events();
    let snapshot = telemetry.metrics_snapshot();
    let fallbacks = snapshot.counter("serve.fallbacks").unwrap_or(0) as usize;
    let reference_forwards = traced.report.reference_stats.forwards;
    checks.count("serve-routed reference captures (fallbacks)", reference_forwards, fallbacks);
    metrics.push("serve.batch_ms_p50", median(&span_ms(&events, "serve_batch")), "ms");
    metrics.push("serve.fallbacks", fallbacks as f64, "count");
    metrics.push("trainer.opt_step_ms_p50", median(&span_ms(&events, "opt_step")), "ms");
    metrics.push(
        "reference.refresh_ms_p50",
        median(&span_ms(&events, "reference_refresh")),
        "ms",
    );
    let untraced_tput = plain.report.iterations.len() as f64 / plain.train_s;
    let traced_tput = traced.report.iterations.len() as f64 / traced.train_s;
    metrics.push(
        "obs.trace_overhead_pct",
        (untraced_tput / traced_tput - 1.0) * 100.0,
        "%",
    );
    metrics.push("obs.dropped_spans", dropped as f64, "count");
    drop(traced);

    // Direct layer calls.
    let cfg = default_egeria(args.spec.kind);
    let probes = layers::workload_probes(
        plain.trainer.model_mut(),
        &plain.train_set,
        plain.batch_size,
        &cfg,
        final_prefix,
        args.seed,
        &scratch.dir(),
        metrics,
    )?;
    checks.count(
        "direct cache gets returning what was put",
        probes.cache_gets,
        probes.cache_get_failures,
    );
    for kind in [Kind::ResNet56, Kind::TransformerBase] {
        layers::model_sweep(kind, TRAJECTORY_SEED, args.seed, metrics)?;
    }
    Ok(fp)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}");
            eprintln!("usage: trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let ctx = match Context::capture() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("trainbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trainbench: cannot create {WORK_DIR}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let result = if args.trace {
        per_layer(&args, &mut scratch, &mut metrics, &mut checks)
    } else {
        end_to_end(&args, &mut scratch, &mut metrics, &mut checks)
    };
    let fp = match result {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("trainbench: {} failed: {e}", args.spec.name);
            return ExitCode::from(1);
        }
    };
    drop(scratch);
    let recorded = matches_recorded(args.spec.name, ctx.isa, &fp);
    checks.count(
        "fingerprint equal to the set's first run",
        1,
        usize::from(!matches!(recorded, Ok(true))),
    );
    checks.count("finite metric values", metrics.0.len(), metrics.non_finite());
    for p in &checks.problems {
        eprintln!("trainbench: check failed: {p}");
    }
    println!(
        "context workload={} seed={} trace={} isa={} pool_threads={} nproc={} egeria_env=none fingerprint={}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        ctx.isa,
        ctx.pool_threads,
        ctx.nproc,
        fp
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
