//! The Egeria training loop (Figure 3's life cycle, end to end).
//!
//! [`EgeriaTrainer`] drives a [`Model`] over a [`Dataset`] with an optimizer
//! and LR schedule. With `egeria: Some(config)` the loop runs the full
//! knowledge-guided pipeline — bootstrap monitoring, reference generation
//! and refresh, periodic plasticity evaluation, Algorithm 1
//! freezing/unfreezing, and cached-FP with prefetching. With `egeria: None`
//! it is the vanilla baseline the paper compares against. Either way it
//! emits a [`TrainReport`] whose per-iteration records feed the performance
//! simulator.

use crate::bootstrap::BootstrapMonitor;
use crate::cache::{ActivationCache, CacheStats};
use crate::checkpoint::{CheckpointOptions, CheckpointStore, TrainerCheckpoint};
use crate::config::{ControllerMode, EgeriaConfig, PolicyKind, UnfreezePolicy};
use crate::controller::{system_load_probe, AsyncController};
use crate::faults::{FaultInjector, FaultSite};
use crate::freezer::{FreezeEvent, FreezingEngine};
use crate::reference::{ReferenceManager, ReferenceStats};
use egeria_resil::health::HealthMonitor;
use egeria_resil::supervise::Watchdog;
use egeria_data::{DataLoader, Dataset};
use egeria_models::Model;
use egeria_nn::optim::{Adam, OptimizerState, Sgd};
use egeria_nn::sched::LrSchedule;
use egeria_obs::{ArgValue, Telemetry};
use egeria_tensor::{Result, TensorError};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// How many dead async-controller threads the trainer may respawn over
/// one run before the watchdog budget is exhausted (exhaustion drops the
/// controller permanently and flips health to Critical; training itself
/// continues without plasticity evaluations).
const CONTROLLER_RESPAWN_BUDGET: u32 = 3;

/// The optimizer driving parameter updates.
pub enum Optimizer {
    /// SGD with momentum.
    Sgd(Sgd),
    /// Adam.
    Adam(Adam),
}

impl Optimizer {
    /// Sets the learning rate on the wrapped optimizer.
    pub fn set_lr(&mut self, lr: f32) {
        match self {
            Optimizer::Sgd(o) => o.set_lr(lr),
            Optimizer::Adam(o) => o.set_lr(lr),
        }
    }

    /// Applies one update to the given parameters.
    pub fn step(&mut self, params: &mut [&mut egeria_nn::Parameter]) -> Result<()> {
        match self {
            Optimizer::Sgd(o) => o.step(params),
            Optimizer::Adam(o) => o.step(params),
        }
    }

    /// Snapshots the optimizer state for checkpointing.
    pub fn export_state(&self, params: &[&egeria_nn::Parameter]) -> OptimizerState {
        match self {
            Optimizer::Sgd(o) => o.export_state(params),
            Optimizer::Adam(o) => o.export_state(params),
        }
    }

    /// Restores optimizer state from a checkpoint.
    pub fn load_state(&mut self, state: &OptimizerState, params: &[&egeria_nn::Parameter]) -> Result<()> {
        match self {
            Optimizer::Sgd(o) => o.load_state(state, params),
            Optimizer::Adam(o) => o.load_state(state, params),
        }
    }
}

/// Trainer options beyond model/optimizer/schedule.
pub struct TrainerOptions {
    /// Number of epochs.
    pub epochs: usize,
    /// Egeria configuration; `None` trains the vanilla baseline.
    pub egeria: Option<EgeriaConfig>,
    /// Whether the LR schedule is indexed by iteration (NLP convention) or
    /// epoch (CV convention).
    pub lr_per_iteration: bool,
    /// Directory for the activation cache (a temp dir is created when
    /// omitted and caching is on).
    pub cache_dir: Option<PathBuf>,
    /// Evaluate on the validation set every this many epochs (1 = every).
    pub eval_every: usize,
    /// Crash-consistent checkpointing; `None` disables it. When set, the
    /// trainer auto-resumes from the newest valid checkpoint in the
    /// directory before the first epoch.
    pub checkpoint: Option<CheckpointOptions>,
    /// Fault injector for robustness tests; `None` in production.
    pub faults: Option<Arc<FaultInjector>>,
    /// Health monitor aggregating degradation signals from the breaker,
    /// watchdogs, and cache quarantine. One is created internally when
    /// omitted, so the report always carries a final health state.
    pub health: Option<Arc<HealthMonitor>>,
    /// Telemetry handle wired through the freezer, cache, reference
    /// manager, and controller. The default disabled handle records
    /// nothing and costs one branch per instrumentation point.
    pub telemetry: Telemetry,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            epochs: 10,
            egeria: None,
            lr_per_iteration: false,
            cache_dir: None,
            eval_every: 1,
            checkpoint: None,
            faults: None,
            health: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One epoch's summary.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Validation loss (if evaluated this epoch).
    pub val_loss: Option<f32>,
    /// Validation task metric (if evaluated this epoch).
    pub val_metric: Option<f32>,
    /// Learning rate in effect at the epoch start.
    pub lr: f32,
    /// Frozen prefix at the epoch end.
    pub frozen_prefix: usize,
    /// Fraction of parameters still trainable at the epoch end.
    pub active_param_fraction: f32,
}

/// One training iteration's cost-relevant facts (the simulator input).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IterationRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Frozen-prefix length during this iteration.
    pub frozen_prefix: u16,
    /// Whether the frozen prefix's forward pass was served from the cache.
    pub fp_cached: bool,
}

/// One plasticity evaluation, for trace figures.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PlasticityPoint {
    /// Global iteration index the evaluation ran at.
    pub iteration: usize,
    /// Module under evaluation.
    pub module: usize,
    /// Raw SP-loss plasticity.
    pub raw: f32,
    /// Smoothed (Equation 2) value.
    pub smoothed: f32,
}

/// A freeze/unfreeze event for the decision-timeline figure.
#[derive(Debug, Clone, Serialize)]
pub struct EventRecord {
    /// Global iteration index.
    pub iteration: usize,
    /// `"freeze"` or `"unfreeze"`.
    pub kind: String,
    /// Frozen-prefix length after the event.
    pub prefix: usize,
}

/// The full output of a training run.
#[derive(Debug, Clone, Serialize, Default)]
pub struct TrainReport {
    /// Model name.
    pub model: String,
    /// Whether Egeria was active.
    pub egeria: bool,
    /// Per-epoch summaries.
    pub epochs: Vec<EpochRecord>,
    /// Per-iteration cost facts.
    pub iterations: Vec<IterationRecord>,
    /// Plasticity trace.
    pub plasticity: Vec<PlasticityPoint>,
    /// Freeze/unfreeze events.
    pub events: Vec<EventRecord>,
    /// Cache counters (zeroed when caching is off).
    #[serde(skip)]
    pub cache_stats: CacheStats,
    /// Reference counters.
    #[serde(skip)]
    pub reference_stats: ReferenceStats,
    /// Wall-clock seconds of the whole run (this machine, not the
    /// simulated testbed).
    pub wall_seconds: f64,
    /// Total bytes of input data materialized (for the cache-storage-ratio
    /// report).
    pub input_bytes: u64,
    /// Times a dead async-controller thread was detected and respawned.
    pub controller_restarts: usize,
    /// Checkpoint saves that failed (training continued without them).
    pub checkpoint_save_errors: usize,
    /// The epoch training resumed from, if a checkpoint was loaded.
    pub resumed_from_epoch: Option<usize>,
    /// Plasticity evaluations skipped because the reference capture
    /// failed (degrading to "don't decide yet" instead of aborting).
    pub eval_skips: usize,
    /// Final health level: 0 healthy, 1 degraded, 2 critical.
    pub health_level: u8,
    /// Outstanding health reasons (critical first, then degraded) at the
    /// end of the run.
    pub health_reasons: Vec<String>,
}

/// The training harness.
pub struct EgeriaTrainer {
    model: Box<dyn Model>,
    optimizer: Optimizer,
    schedule: Box<dyn LrSchedule>,
    options: TrainerOptions,
}

impl EgeriaTrainer {
    /// Creates a trainer.
    pub fn new(
        model: Box<dyn Model>,
        optimizer: Optimizer,
        schedule: Box<dyn LrSchedule>,
        options: TrainerOptions,
    ) -> Self {
        EgeriaTrainer {
            model,
            optimizer,
            schedule,
            options,
        }
    }

    /// Access to the trained model after (or during) training.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Mutable access to the model (snapshotting between runs).
    pub fn model_mut(&mut self) -> &mut dyn Model {
        self.model.as_mut()
    }

    /// Runs the full training loop.
    ///
    /// `val` is evaluated every `eval_every` epochs with its own loader.
    pub fn train(
        &mut self,
        train: &dyn Dataset,
        loader: &DataLoader,
        val: Option<(&dyn Dataset, &DataLoader)>,
    ) -> Result<TrainReport> {
        let started = Instant::now();
        let mut egeria_cfg = self.options.egeria;
        // `EGERIA_FREEZE_POLICY` overrides the configured decision policy
        // (README knob; see DESIGN §5i). Applied to this run's local copy
        // only — the options keep what the caller configured.
        if let (Some(cfg), Some(kind)) = (egeria_cfg.as_mut(), PolicyKind::from_env()) {
            cfg.policy = kind;
        }
        let telemetry = self.options.telemetry.clone();
        let mut report = TrainReport {
            model: self.model.name().to_string(),
            egeria: egeria_cfg.is_some(),
            ..Default::default()
        };

        // Egeria machinery (present only when enabled).
        let mut bootstrap = egeria_cfg.map(|c| BootstrapMonitor::new(c.w.max(4), c.bootstrap_rate));
        let mut freezer = egeria_cfg.map(|c| FreezingEngine::new(self.model.modules().len(), &c));
        let mut refmgr = egeria_cfg.map(|c| ReferenceManager::new(&c));
        let mut async_ctrl: Option<AsyncController> = None;
        let mut cache = match egeria_cfg {
            Some(c) if c.cache_fp => {
                let dir = self.options.cache_dir.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join(format!(
                        "egeria_cache_{}_{}",
                        std::process::id(),
                        self.model.name()
                    ))
                });
                Some(ActivationCache::for_config(dir, &c)?)
            }
            _ => None,
        };
        let health = self
            .options
            .health
            .clone()
            .unwrap_or_else(|| HealthMonitor::new(telemetry.clone()));
        let faults = self.options.faults.clone();
        if let Some(f) = freezer.as_mut() {
            f.set_telemetry(telemetry.clone());
        }
        if let Some(r) = refmgr.as_mut() {
            r.set_telemetry(telemetry.clone());
            if let Some(f) = faults.clone() {
                r.set_faults(f);
            }
            r.set_health(Arc::clone(&health));
        }
        if let Some(c) = cache.as_mut() {
            c.set_faults(faults.clone());
            c.set_telemetry(telemetry.clone());
            c.set_health(Arc::clone(&health));
        }
        let ctrl_watchdog = Watchdog::new(
            "async-controller",
            CONTROLLER_RESPAWN_BUDGET,
            telemetry.clone(),
        )
        .with_health(Arc::clone(&health), "controller-respawn-budget-exhausted");

        let mut global_step = 0usize;
        let mut evals_since_ref_update = 0usize;

        // Crash consistency: open the checkpoint store and resume from the
        // newest valid checkpoint before the first epoch.
        let mut store = match &self.options.checkpoint {
            Some(opts) => Some(
                CheckpointStore::open(&opts.dir, opts.keep)?.with_faults(faults.clone()),
            ),
            None => None,
        };
        let mut start_epoch = 0usize;
        if let Some(s) = store.as_ref() {
            if let Some(ckpt) = s.load_latest() {
                start_epoch = self.resume_from(
                    &ckpt,
                    &mut bootstrap,
                    &mut freezer,
                    &mut refmgr,
                    &mut async_ctrl,
                    &mut report,
                    &mut global_step,
                    &mut evals_since_ref_update,
                    &mut cache,
                )?;
            }
        }

        for epoch in start_epoch..self.options.epochs {
            let plans = loader.epoch_plan(epoch);
            let mut epoch_loss = 0.0f64;
            let mut epoch_batches = 0usize;
            let epoch_lr = self.schedule.lr(if self.options.lr_per_iteration {
                global_step
            } else {
                epoch
            });
            for plan in &plans {
                // Simulated mid-epoch crash (robustness tests): abort the
                // run exactly here, before any state for this step exists.
                if let Some(f) = &faults {
                    if f.should_fail(FaultSite::TrainStep) {
                        return Err(TensorError::Io(
                            "injected crash: training aborted mid-epoch".into(),
                        ));
                    }
                }
                let lr = self.schedule.lr(if self.options.lr_per_iteration {
                    global_step
                } else {
                    epoch
                });
                self.optimizer.set_lr(lr);
                let batch = train.materialize(&plan.indices)?;
                report.input_bytes += batch_input_bytes(&batch);
                let prefix = self.model.frozen_prefix();

                // Watchdog: a dead controller thread (panic or injected
                // fault) is detected here and respawned with a fresh
                // reference generated from the current weights. In-flight
                // evaluations are lost — a skipped eval, not an error.
                // Respawns are capped: a controller that keeps dying is
                // dropped permanently (health Critical) and training
                // continues without plasticity evaluations.
                if async_ctrl.as_ref().map(|c| !c.is_alive()).unwrap_or(false) {
                    if let Some(cfg) = egeria_cfg.as_ref() {
                        if ctrl_watchdog.request_respawn() {
                            eprintln!(
                                "egeria: controller thread died; respawning with a fresh reference"
                            );
                            let mut rm = ReferenceManager::new(cfg);
                            rm.set_telemetry(telemetry.clone());
                            if let Some(f) = faults.clone() {
                                rm.set_faults(f);
                            }
                            rm.set_health(Arc::clone(&health));
                            rm.generate(self.model.as_ref())?;
                            async_ctrl = Some(AsyncController::spawn_with_telemetry(
                                rm,
                                cfg.cpu_load_gate,
                                system_load_probe(),
                                faults.clone(),
                                telemetry.clone(),
                            ));
                            report.controller_restarts += 1;
                            telemetry.counter("controller.restarts").inc();
                            evals_since_ref_update = 0;
                        } else {
                            eprintln!(
                                "egeria: controller respawn budget exhausted; \
                                 continuing without plasticity evaluations"
                            );
                            async_ctrl = None;
                        }
                    }
                }

                // Drain async plasticity results first so decisions apply
                // promptly.
                if let (Some(ctrl), Some(fr)) = (&async_ctrl, freezer.as_mut()) {
                    for r in ctrl.poll_results() {
                        if r.module != fr.front() {
                            continue; // Stale: the front advanced meanwhile.
                        }
                        if let Some(p) = r.value {
                            self.fold_plasticity(
                                fr,
                                &mut cache,
                                &mut report,
                                &telemetry,
                                p,
                                lr,
                                r.module,
                                global_step,
                                &mut evals_since_ref_update,
                            )?;
                        }
                    }
                }

                let bootstrap_done = bootstrap.as_ref().map(|b| b.is_done()).unwrap_or(false);
                let reference_available = refmgr.as_ref().map(|r| r.is_ready()).unwrap_or(false)
                    || async_ctrl.is_some();
                let do_eval = egeria_cfg
                    .map(|c| bootstrap_done && global_step.is_multiple_of(c.n))
                    .unwrap_or(false)
                    && reference_available;

                let mut fp_cached = false;
                let eval_front = if do_eval {
                    freezer.as_ref().map(|f| f.front())
                } else {
                    None
                };
                let step_span = telemetry.span("train_step");
                let step_result = if let Some(front) = eval_front {
                    let r = self.model.train_step(&batch, Some(front))?;
                    let a_train = r.captured.clone().ok_or_else(|| {
                        TensorError::Numerical("capture hook returned nothing".into())
                    })?;
                    match (&mut async_ctrl, refmgr.as_mut()) {
                        (Some(ctrl), _) => {
                            let _ = ctrl.submit(batch.clone(), front, a_train);
                        }
                        (None, Some(rm)) => {
                            // A failed reference capture degrades to
                            // "don't decide yet": the evaluation is
                            // skipped (freezing on missing knowledge is
                            // the mistimed-freeze risk §4.2 warns about),
                            // training itself never aborts.
                            let a_ref = match rm.capture(&batch, front) {
                                Ok(a) => Some(a),
                                Err(e) => {
                                    eprintln!(
                                        "egeria: reference capture failed; skipping evaluation: {e}"
                                    );
                                    report.eval_skips += 1;
                                    telemetry.counter("trainer.eval_skips").inc();
                                    None
                                }
                            };
                            if let (Some(a_ref), Some(fr), Some(cfg)) =
                                (a_ref, freezer.as_mut(), egeria_cfg.as_ref())
                            {
                                let p = egeria_analysis::sp_loss(&a_train, &a_ref)?;
                                self.fold_plasticity(
                                    fr,
                                    &mut cache,
                                    &mut report,
                                    &telemetry,
                                    p,
                                    lr,
                                    front,
                                    global_step,
                                    &mut evals_since_ref_update,
                                )?;
                                if cfg.reference_update_every > 0
                                    && evals_since_ref_update >= cfg.reference_update_every
                                {
                                    rm.generate(self.model.as_ref())?;
                                    evals_since_ref_update = 0;
                                }
                            }
                        }
                        _ => {}
                    }
                    r
                } else if let (true, Some(c)) = (
                    prefix > 0
                        && egeria_cfg.map(|c| c.cache_fp).unwrap_or(false)
                        && self.model.supports_cached_fp(prefix),
                    cache.as_mut(),
                ) {
                    match c.get_batch(&batch.sample_ids, prefix)? {
                        Some(act) => {
                            fp_cached = true;
                            if telemetry.is_enabled() {
                                telemetry.instant(
                                    "cache_lookup",
                                    Some(global_step as u64),
                                    None,
                                    vec![("outcome", ArgValue::Str("hit"))],
                                );
                            }
                            self.model.train_step_from(&batch, prefix, &act, None)?
                        }
                        None => {
                            if telemetry.is_enabled() {
                                telemetry.instant(
                                    "cache_lookup",
                                    Some(global_step as u64),
                                    None,
                                    vec![("outcome", ArgValue::Str("miss"))],
                                );
                            }
                            // Fill the cache with the frozen boundary's
                            // activation while doing the full forward.
                            let r = self.model.train_step(&batch, Some(prefix - 1))?;
                            if let Some(act) = &r.captured {
                                c.put_batch(&batch.sample_ids, act, prefix)?;
                            }
                            r
                        }
                    }
                } else {
                    self.model.train_step(&batch, None)?
                };

                // Bootstrap monitoring happens at the same n-interval.
                if let (Some(b), Some(c)) = (bootstrap.as_mut(), egeria_cfg.as_ref()) {
                    if !b.is_done() && global_step.is_multiple_of(c.n) && b.observe(step_result.loss) {
                        // Critical period over: generate the reference.
                        if let Some(rm) = refmgr.as_mut() {
                            rm.generate(self.model.as_ref())?;
                        }
                        if c.controller == ControllerMode::Async {
                            if let Some(rm_owned) = refmgr.take() {
                                async_ctrl = Some(AsyncController::spawn_with_telemetry(
                                    rm_owned,
                                    c.cpu_load_gate,
                                    system_load_probe(),
                                    faults.clone(),
                                    telemetry.clone(),
                                ));
                            }
                        }
                    }
                }
                // Async reference refresh.
                if let (Some(ctrl), Some(c)) = (&async_ctrl, egeria_cfg.as_ref()) {
                    if c.reference_update_every > 0
                        && evals_since_ref_update >= c.reference_update_every
                    {
                        ctrl.update_reference(self.model.clone_boxed());
                        evals_since_ref_update = 0;
                    }
                }

                {
                    let _opt_span = telemetry.span("opt_step").iteration(global_step as u64);
                    let mut params = self.model.params_mut();
                    self.optimizer.step(&mut params)?;
                    drop(params);
                    self.model.zero_grad();
                }
                drop(
                    step_span
                        .iteration(global_step as u64)
                        .arg("frozen_prefix", self.model.frozen_prefix() as u64)
                        .arg("fp_cached", fp_cached),
                );
                epoch_loss += step_result.loss as f64;
                epoch_batches += 1;
                report.iterations.push(IterationRecord {
                    epoch: epoch as u32,
                    frozen_prefix: self.model.frozen_prefix() as u16,
                    fp_cached,
                });
                global_step += 1;
            }

            let (val_loss, val_metric) = match (&val, epoch % self.options.eval_every.max(1)) {
                (Some((vd, vl)), 0) => {
                    let (l, m) = evaluate(self.model.as_mut(), *vd, vl)?;
                    (Some(l), Some(m))
                }
                _ => (None, None),
            };
            report.epochs.push(EpochRecord {
                epoch,
                train_loss: (epoch_loss / epoch_batches.max(1) as f64) as f32,
                val_loss,
                val_metric,
                lr: epoch_lr,
                frozen_prefix: self.model.frozen_prefix(),
                active_param_fraction: self.model.active_param_fraction(),
            });
            if telemetry.is_enabled() {
                let pool = egeria_tensor::ThreadPool::global().stats();
                telemetry.gauge("pool.jobs").set(pool.jobs as f64);
                telemetry.gauge("pool.tasks").set(pool.tasks as f64);
                telemetry.gauge("pool.inline_jobs").set(pool.inline_jobs as f64);
                telemetry.instant(
                    "pool_occupancy",
                    Some(global_step as u64),
                    None,
                    vec![
                        ("jobs", ArgValue::U64(pool.jobs as u64)),
                        ("tasks", ArgValue::U64(pool.tasks as u64)),
                        ("inline_jobs", ArgValue::U64(pool.inline_jobs as u64)),
                    ],
                );
            }

            // Epoch-boundary checkpoint. A failed save is a logged
            // degradation, never a training failure.
            if let Some(s) = store.as_mut() {
                let every = self
                    .options
                    .checkpoint
                    .as_ref()
                    .map(|o| o.every.max(1))
                    .unwrap_or(1);
                if (epoch + 1) % every == 0 || epoch + 1 == self.options.epochs {
                    // Flush the activation store alongside the model
                    // checkpoint so a resumed run reopens a consistent
                    // cache. Failure is a degradation — the resume
                    // recomputes — never fatal.
                    if let Some(c) = cache.as_mut() {
                        if let Err(e) = c.persist() {
                            eprintln!(
                                "egeria: cache persist failed at epoch {epoch}: {e}; resume will recompute"
                            );
                        }
                    }
                    let ckpt = self.build_checkpoint(
                        epoch + 1,
                        global_step,
                        evals_since_ref_update,
                        &bootstrap,
                        &freezer,
                        &refmgr,
                        &report,
                    );
                    let save_span = telemetry
                        .span("checkpoint_save")
                        .iteration(global_step as u64);
                    if let Err(e) = s.save(&ckpt) {
                        eprintln!("egeria: checkpoint save failed at epoch {epoch}: {e}");
                        s.save_errors += 1;
                        report.checkpoint_save_errors += 1;
                        telemetry.counter("checkpoint.save_errors").inc();
                    } else {
                        telemetry.counter("checkpoint.saves").inc();
                    }
                    drop(save_span);
                }
            }
        }
        if let Some(mut c) = cache {
            // Flush the store at the run boundary: the on-disk state stays
            // consistent for a later resume and the reported disk-byte
            // stats reflect what actually landed.
            if let Err(e) = c.persist() {
                eprintln!("egeria: cache persist failed at end of training: {e}");
            }
            report.cache_stats = c.stats();
        }
        if let Some(rm) = refmgr {
            report.reference_stats = rm.stats();
        }
        let health_state = health.state();
        report.health_level = health_state.level();
        report.health_reasons = match health_state {
            egeria_resil::HealthState::Healthy => Vec::new(),
            egeria_resil::HealthState::Degraded { reasons }
            | egeria_resil::HealthState::Critical { reasons } => {
                reasons.into_iter().map(str::to_string).collect()
            }
        };
        report.wall_seconds = started.elapsed().as_secs_f64();
        Ok(report)
    }

    /// The one plasticity-fold entry point shared by the sync and
    /// async-controller paths: fold the value into the freezer (which bumps
    /// the evaluation telemetry and runs the policy's LR-reboot guard
    /// exactly once), record the observation, apply the decision to the
    /// model/cache, and record the event. Before this existed, the two
    /// paths duplicated the sequence with divergent semantics (the async
    /// drain recorded plasticity points even for unfreeze evaluations whose
    /// value was never folded); policies now observe identical state
    /// regardless of controller mode.
    #[allow(clippy::too_many_arguments)]
    fn fold_plasticity(
        &mut self,
        freezer: &mut FreezingEngine,
        cache: &mut Option<ActivationCache>,
        report: &mut TrainReport,
        telemetry: &Telemetry,
        p: f32,
        lr: f32,
        module: usize,
        global_step: usize,
        evals_since_ref_update: &mut usize,
    ) -> Result<()> {
        let (obs, event) = freezer.observe_value(p, lr)?;
        if let Some(o) = &obs {
            record_plasticity(report, telemetry, global_step, module, o.raw, obs);
        }
        self.apply_event(event, cache)?;
        record_event(
            report,
            telemetry,
            global_step,
            event,
            self.model.frozen_prefix(),
            obs.map(|o| o.smoothed),
            freezer.policy_name(),
        );
        *evals_since_ref_update += 1;
        Ok(())
    }

    fn apply_event(
        &mut self,
        event: FreezeEvent,
        cache: &mut Option<ActivationCache>,
    ) -> Result<()> {
        match event {
            FreezeEvent::None => Ok(()),
            FreezeEvent::Froze(k) => {
                self.model.freeze_prefix(k)?;
                if let Some(c) = cache {
                    c.invalidate();
                }
                Ok(())
            }
            FreezeEvent::Unfroze => {
                self.model.unfreeze_all();
                if let Some(c) = cache {
                    c.invalidate();
                }
                Ok(())
            }
        }
    }

    /// Assembles the complete persistent state at an epoch boundary.
    ///
    /// In async mode the reference lives on the controller thread, so
    /// `reference` is `None` and resume regenerates it from the restored
    /// weights (async decisions are load-dependent and nondeterministic
    /// anyway; sync mode restores the exact reference for exact replay).
    #[allow(clippy::too_many_arguments)]
    fn build_checkpoint(
        &self,
        next_epoch: usize,
        global_step: usize,
        evals_since_ref_update: usize,
        bootstrap: &Option<BootstrapMonitor>,
        freezer: &Option<FreezingEngine>,
        refmgr: &Option<ReferenceManager>,
        report: &TrainReport,
    ) -> TrainerCheckpoint {
        let params = self.model.params();
        let optimizer = self.optimizer.export_state(&params);
        TrainerCheckpoint {
            model_name: self.model.name().to_string(),
            next_epoch: next_epoch as u64,
            global_step: global_step as u64,
            evals_since_ref_update: evals_since_ref_update as u64,
            frozen_prefix: self.model.frozen_prefix() as u64,
            params: params
                .iter()
                .map(|p| (p.name.clone(), p.value.clone()))
                .collect(),
            state_buffers: self
                .model
                .state_buffers()
                .iter()
                .map(|t| (*t).clone())
                .collect(),
            optimizer,
            freezer: freezer.as_ref().map(|f| f.snapshot()),
            bootstrap: bootstrap.as_ref().map(|b| b.snapshot()),
            reference: refmgr.as_ref().and_then(|rm| rm.export_reference()),
            epochs: report.epochs.clone(),
            iterations: report.iterations.clone(),
            plasticity: report.plasticity.clone(),
            events: report.events.clone(),
            input_bytes: report.input_bytes,
            ..Default::default()
        }
    }

    /// Restores trainer state from a loaded checkpoint; returns the epoch
    /// to continue from.
    #[allow(clippy::too_many_arguments)]
    fn resume_from(
        &mut self,
        ckpt: &TrainerCheckpoint,
        bootstrap: &mut Option<BootstrapMonitor>,
        freezer: &mut Option<FreezingEngine>,
        refmgr: &mut Option<ReferenceManager>,
        async_ctrl: &mut Option<AsyncController>,
        report: &mut TrainReport,
        global_step: &mut usize,
        evals_since_ref_update: &mut usize,
        cache: &mut Option<ActivationCache>,
    ) -> Result<usize> {
        if ckpt.model_name != self.model.name() {
            return Err(TensorError::Corrupt(format!(
                "checkpoint is for model {:?}, trainer has {:?}",
                ckpt.model_name,
                self.model.name()
            )));
        }
        // Model parameters, by name.
        {
            let mut params = self.model.params_mut();
            if params.len() != ckpt.params.len() {
                return Err(TensorError::Corrupt(format!(
                    "checkpoint has {} params, model has {}",
                    ckpt.params.len(),
                    params.len()
                )));
            }
            for p in params.iter_mut() {
                let value = ckpt
                    .params
                    .iter()
                    .find(|(n, _)| *n == p.name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| {
                        TensorError::Corrupt(format!(
                            "checkpoint is missing parameter {:?}",
                            p.name
                        ))
                    })?;
                if value.dims() != p.value.dims() {
                    return Err(TensorError::ShapeMismatch {
                        op: "resume",
                        lhs: p.value.dims().to_vec(),
                        rhs: value.dims().to_vec(),
                    });
                }
                p.value = value.clone();
            }
        }
        // Non-parameter state (BatchNorm running statistics), positional.
        {
            let mut bufs = self.model.state_buffers_mut();
            if bufs.len() != ckpt.state_buffers.len() {
                return Err(TensorError::Corrupt(format!(
                    "checkpoint has {} state buffers, model has {}",
                    ckpt.state_buffers.len(),
                    bufs.len()
                )));
            }
            for (dst, src) in bufs.iter_mut().zip(ckpt.state_buffers.iter()) {
                if src.dims() != dst.dims() {
                    return Err(TensorError::ShapeMismatch {
                        op: "resume",
                        lhs: dst.dims().to_vec(),
                        rhs: src.dims().to_vec(),
                    });
                }
                **dst = src.clone();
            }
        }
        self.model.zero_grad();
        self.model.unfreeze_all();
        if ckpt.frozen_prefix > 0 {
            self.model.freeze_prefix(ckpt.frozen_prefix as usize)?;
        }
        {
            let params = self.model.params();
            self.optimizer.load_state(&ckpt.optimizer, &params)?;
        }
        if let (Some(fr), Some(s)) = (freezer.as_mut(), ckpt.freezer.as_ref()) {
            fr.restore(s)?;
        }
        if let (Some(b), Some(s)) = (bootstrap.as_mut(), ckpt.bootstrap.as_ref()) {
            b.restore(s);
        }
        // Reference model. The bootstrap-completion transition that
        // normally generates the reference (and, in async mode, spawns the
        // controller) is latched and will never re-fire after restore, so
        // both are reconstructed here explicitly.
        let bootstrap_done = bootstrap.as_ref().map(|b| b.is_done()).unwrap_or(false);
        if let Some(cfg) = self.options.egeria.as_ref() {
            if bootstrap_done {
                match cfg.controller {
                    ControllerMode::Sync => {
                        if let Some(rm) = refmgr.as_mut() {
                            match ckpt.reference.as_ref() {
                                Some(snap) => {
                                    rm.restore_reference(self.model.as_ref(), snap)?
                                }
                                None => rm.generate(self.model.as_ref())?,
                            }
                        }
                    }
                    ControllerMode::Async => {
                        if let Some(mut rm) = refmgr.take() {
                            rm.generate(self.model.as_ref())?;
                            *async_ctrl = Some(AsyncController::spawn_with_telemetry(
                                rm,
                                cfg.cpu_load_gate,
                                system_load_probe(),
                                self.options.faults.clone(),
                                self.options.telemetry.clone(),
                            ));
                        }
                    }
                }
            }
        }
        // A checkpoint from before the chunked store was the only cache
        // backend (every v<=2 file, and v3 files that say "flat") left a
        // foreign layout in the cache dir: start from a clean cache.
        if !ckpt.has_chunked_cache() {
            if let Some(c) = cache.as_mut() {
                eprintln!("egeria: checkpoint predates the chunked cache; invalidating cache");
                c.invalidate();
            }
        }
        // Report accumulators, so the final report covers the whole run.
        report.epochs = ckpt.epochs.clone();
        report.iterations = ckpt.iterations.clone();
        report.plasticity = ckpt.plasticity.clone();
        report.events = ckpt.events.clone();
        report.input_bytes = ckpt.input_bytes;
        report.resumed_from_epoch = Some(ckpt.next_epoch as usize);
        *global_step = ckpt.global_step as usize;
        *evals_since_ref_update = ckpt.evals_since_ref_update as usize;
        Ok(ckpt.next_epoch as usize)
    }

    /// Applies a user-defined cyclical unfreeze (the `Custom` policy hook).
    pub fn custom_unfreeze(&mut self, freezer: &mut FreezingEngine) -> Result<()> {
        if self.options.egeria.map(|c| c.unfreeze) == Some(UnfreezePolicy::Custom) {
            freezer.unfreeze_now();
            self.model.unfreeze_all();
        }
        Ok(())
    }
}

/// Evaluates a model over a full dataset pass; returns `(loss, metric)`
/// averaged by sample count.
pub fn evaluate(model: &mut dyn Model, data: &dyn Dataset, loader: &DataLoader) -> Result<(f32, f32)> {
    let mut loss = 0.0f64;
    let mut metric = 0.0f64;
    let mut count = 0usize;
    for plan in loader.epoch_plan(0) {
        let batch = data.materialize(&plan.indices)?;
        let r = model.eval_batch(&batch)?;
        loss += r.loss as f64 * r.count as f64;
        metric += r.metric as f64 * r.count as f64;
        count += r.count;
    }
    let n = count.max(1) as f64;
    Ok(((loss / n) as f32, (metric / n) as f32))
}

fn batch_input_bytes(batch: &egeria_models::Batch) -> u64 {
    match &batch.input {
        egeria_models::Input::Image(t) => (t.numel() * 4) as u64,
        egeria_models::Input::Tokens(ids) => {
            ids.iter().map(|s| s.len() * 8).sum::<usize>() as u64
        }
        egeria_models::Input::Seq2Seq { src, tgt } => {
            (src.iter().map(|s| s.len()).sum::<usize>()
                + tgt.iter().map(|s| s.len()).sum::<usize>()) as u64
                * 8
        }
    }
}

fn record_plasticity(
    report: &mut TrainReport,
    telemetry: &Telemetry,
    iteration: usize,
    module: usize,
    raw: f32,
    obs: Option<crate::plasticity::PlasticityObservation>,
) {
    let smoothed = obs.map(|o| o.smoothed).unwrap_or(raw);
    report.plasticity.push(PlasticityPoint {
        iteration,
        module,
        raw,
        smoothed,
    });
    if telemetry.is_enabled() {
        telemetry.instant(
            "plasticity_probe",
            Some(iteration as u64),
            Some(module as u64),
            vec![
                ("raw", ArgValue::F64(raw as f64)),
                ("smoothed", ArgValue::F64(smoothed as f64)),
            ],
        );
    }
}

fn record_event(
    report: &mut TrainReport,
    telemetry: &Telemetry,
    iteration: usize,
    event: FreezeEvent,
    prefix: usize,
    value: Option<f32>,
    policy: &'static str,
) {
    let kind = match event {
        FreezeEvent::None => return,
        FreezeEvent::Froze(_) => "freeze",
        FreezeEvent::Unfroze => "unfreeze",
    };
    report.events.push(EventRecord {
        iteration,
        kind: kind.to_string(),
        prefix,
    });
    if telemetry.is_enabled() {
        let mut args = vec![
            (
                "action",
                ArgValue::Str(match event {
                    FreezeEvent::Froze(_) => "froze",
                    _ => "unfroze",
                }),
            ),
            ("frozen_prefix", ArgValue::U64(prefix as u64)),
            ("policy", ArgValue::Str(policy)),
        ];
        if let Some(v) = value {
            args.push(("value", ArgValue::F64(v as f64)));
        }
        telemetry.instant("freeze_decision", Some(iteration as u64), None, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_data::images::{ImageDataConfig, SyntheticImages};
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_nn::sched::MultiStepDecay;

    fn tiny_setup(egeria: Option<EgeriaConfig>, epochs: usize) -> (EgeriaTrainer, SyntheticImages, DataLoader) {
        let model = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            7,
        );
        let data = SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            11,
        );
        let loader = DataLoader::new(64, 16, 13, true);
        let trainer = EgeriaTrainer::new(
            Box::new(model),
            Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
            Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX])),
            TrainerOptions {
                epochs,
                egeria,
                ..Default::default()
            },
        );
        (trainer, data, loader)
    }

    #[test]
    fn baseline_training_reduces_loss() {
        let (mut t, data, loader) = tiny_setup(None, 6);
        let report = t.train(&data, &loader, Some((&data, &loader))).unwrap();
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss {first} → {last}");
        assert!(!report.egeria);
        assert!(report.iterations.iter().all(|i| i.frozen_prefix == 0 && !i.fp_cached));
    }

    #[test]
    fn egeria_training_freezes_and_caches() {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0, // Permissive: even a steady trend counts as stationary.
            bootstrap_rate: 0.9,
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 10);
        let report = t.train(&data, &loader, None).unwrap();
        assert!(report.egeria);
        let max_prefix = report.iterations.iter().map(|i| i.frozen_prefix).max().unwrap();
        assert!(max_prefix >= 1, "nothing froze");
        assert!(
            report.iterations.iter().any(|i| i.fp_cached),
            "cache never hit"
        );
        assert!(!report.plasticity.is_empty());
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == "freeze"), "no freeze events recorded");
    }

    #[test]
    fn frozen_prefix_is_monotonic_without_unfreeze() {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            unfreeze: UnfreezePolicy::Never,
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 8);
        let report = t.train(&data, &loader, None).unwrap();
        let prefixes: Vec<u16> = report.iterations.iter().map(|i| i.frozen_prefix).collect();
        for w in prefixes.windows(2) {
            assert!(w[1] >= w[0], "prefix shrank without an unfreeze event");
        }
    }

    #[test]
    fn lr_decay_triggers_unfreeze_event() {
        // Schedule decays 100× at epoch 4; modules frozen before must thaw.
        let model = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            7,
        );
        let data = SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            11,
        );
        let loader = DataLoader::new(64, 16, 13, true);
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            ..Default::default()
        };
        let mut t = EgeriaTrainer::new(
            Box::new(model),
            Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
            Box::new(MultiStepDecay::new(0.05, 0.01, vec![4])),
            TrainerOptions {
                epochs: 8,
                egeria: Some(cfg),
                ..Default::default()
            },
        );
        let report = t.train(&data, &loader, None).unwrap();
        assert!(
            report.events.iter().any(|e| e.kind == "unfreeze"),
            "events: {:?}",
            report.events
        );
    }

    #[test]
    fn async_controller_mode_runs_to_completion() {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            controller: ControllerMode::Async,
            cpu_load_gate: 10.0, // Never gate in tests.
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 8);
        let report = t.train(&data, &loader, None).unwrap();
        assert_eq!(report.epochs.len(), 8);
        // Async decisions should still land and freeze something.
        let max_prefix = report.iterations.iter().map(|i| i.frozen_prefix).max().unwrap();
        assert!(max_prefix >= 1, "async mode froze nothing");
    }

    #[test]
    fn report_serializes_to_json() {
        let (mut t, data, loader) = tiny_setup(None, 2);
        let report = t.train(&data, &loader, None).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"epochs\""));
    }
}
