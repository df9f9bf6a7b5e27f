//! Direct calls into each layer's public functions: the per-layer costs
//! the traced run cannot see from the trainer's existing spans.

use crate::stats::median;
use crate::Metrics;
use egeria_bench::workloads::{Kind, Workload};
use egeria_core::cache::ActivationCache;
use egeria_core::reference::ReferenceManager;
use egeria_core::EgeriaConfig;
use egeria_data::{DataLoader, Dataset};
use egeria_models::{Batch, Model};
use egeria_store::StoreConfig;
use egeria_tensor::{Result, TensorError, Tensor};
use std::path::Path;
use std::time::Instant;

/// Timed repetitions per measured call; each metric is their median.
const REPS: usize = 9;
/// Repetitions for the microsecond-scale SP-loss call.
const SP_REPS: usize = 101;
/// Distinct batches cycled through each cache backend.
const CACHE_BATCHES: usize = 8;
/// Put/get rounds over those batches.
const CACHE_ROUNDS: usize = 3;

/// Milliseconds taken by `f`.
fn time_ms<T>(f: impl FnOnce() -> Result<T>) -> Result<(f64, T)> {
    let t = Instant::now();
    let out = f()?;
    Ok((t.elapsed().as_secs_f64() * 1e3, out))
}

/// Up to `count` distinct batches of `ds` (one shuffled epoch's worth at
/// most), chosen by `seed`.
pub fn seeded_batches(ds: &dyn Dataset, batch: usize, seed: u64, count: usize) -> Result<Vec<Batch>> {
    DataLoader::new(ds.len(), batch, seed, true)
        .epoch_plan(0)
        .iter()
        .take(count)
        .map(|p| ds.materialize(&p.indices))
        .collect()
}

/// The model-layer sweep of one Table-1 model, freshly built at the
/// trajectory seed and probed on a batch chosen by `seed`:
/// per-module forward cost, step cost at every frozen-prefix length `k`,
/// the cached-prefix step at every `k` the model supports, one evaluation
/// batch and one optimizer update.
pub fn model_sweep(kind: Kind, model_seed: u64, seed: u64, out: &mut Metrics) -> Result<()> {
    let w = Workload::make(kind, model_seed);
    let tag = w.name;
    let mut opt = w.optimizer();
    let batch = seeded_batches(w.train.as_ref(), w.batch_size, seed, 1)?.remove(0);
    let val_batch = seeded_batches(w.val.as_ref(), w.batch_size, seed, 1)?.remove(0);
    let mut model = w.model;
    let m = model.modules().len();

    // Interleave the repetitions across modules so drift on a shared box
    // spreads evenly over the sweep.
    let mut fwd = vec![Vec::new(); m];
    let mut step = vec![Vec::new(); m];
    for _ in 0..REPS {
        for (i, v) in fwd.iter_mut().enumerate() {
            v.push(time_ms(|| model.capture_activation(&batch, i))?.0);
        }
        for (k, v) in step.iter_mut().enumerate() {
            model.freeze_prefix(k)?;
            v.push(time_ms(|| model.train_step(&batch, None))?.0);
            model.zero_grad();
        }
    }
    let mut prev = 0.0;
    for (i, v) in fwd.iter().enumerate() {
        let cum = median(v);
        out.push(format!("model.{tag}.fwd_ms.m{i}"), cum - prev, "ms");
        prev = cum;
    }
    for (k, v) in step.iter().enumerate() {
        out.push(format!("model.{tag}.step_ms.k{k}"), median(v), "ms");
    }

    let mut cached: Vec<(usize, Tensor, Vec<f64>)> = Vec::new();
    for k in 1..m {
        if model.supports_cached_fp(k) {
            model.freeze_prefix(k)?;
            let act = model.train_step(&batch, Some(k - 1))?.captured.ok_or_else(|| {
                TensorError::Numerical(format!("{tag}: no activation captured at module {}", k - 1))
            })?;
            model.zero_grad();
            cached.push((k, act, Vec::new()));
        }
    }
    for _ in 0..REPS {
        for (k, act, v) in cached.iter_mut() {
            model.freeze_prefix(*k)?;
            v.push(time_ms(|| model.train_step_from(&batch, *k, act, None))?.0);
            model.zero_grad();
        }
    }
    for (k, _, v) in &cached {
        out.push(format!("model.{tag}.cached_step_ms.k{k}"), median(v), "ms");
    }

    model.freeze_prefix(0)?;
    let evals = (0..REPS)
        .map(|_| time_ms(|| model.eval_batch(&val_batch)).map(|r| r.0))
        .collect::<Result<Vec<_>>>()?;
    out.push(format!("model.{tag}.eval_batch_ms"), median(&evals), "ms");

    model.train_step(&batch, None)?;
    let steps = (0..REPS)
        .map(|_| time_ms(|| opt.step(&mut model.params_mut())).map(|r| r.0))
        .collect::<Result<Vec<_>>>()?;
    model.zero_grad();
    out.push(format!("nn.{tag}.optim_step_ms"), median(&steps), "ms");
    Ok(())
}

/// Cache, quantization, reference and SP-loss calls on the workload's
/// trained model. `prefix` is the run's final frozen prefix; the cache
/// probes store the activation at that boundary (module 0's output when
/// nothing froze) and the reference/SP probes target the front module.
#[allow(clippy::too_many_arguments)]
pub fn workload_probes(
    model: &mut dyn Model,
    train: &dyn Dataset,
    batch_size: usize,
    cfg: &EgeriaConfig,
    prefix: usize,
    seed: u64,
    dir: &Path,
    out: &mut Metrics,
) -> Result<ProbeCounts> {
    let m = model.modules().len();
    let boundary = prefix.clamp(1, m - 1) - 1;
    let front = prefix.min(m - 1);
    let batches = seeded_batches(train, batch_size, seed, CACHE_BATCHES)?;
    let acts = batches
        .iter()
        .map(|b| model.capture_activation(b, boundary))
        .collect::<Result<Vec<_>>>()?;

    let mut counts = ProbeCounts::default();
    let backends: [(&str, ActivationCache); 2] = [
        ("flat", ActivationCache::new(dir.join("flat"), 1)?),
        (
            "chunked",
            ActivationCache::with_store(dir.join("chunked"), 1, StoreConfig::default())?,
        ),
    ];
    for (name, mut cache) in backends {
        let (mut puts, mut gets) = (Vec::new(), Vec::new());
        for _ in 0..CACHE_ROUNDS {
            for (b, act) in batches.iter().zip(&acts) {
                puts.push(time_ms(|| cache.put_batch(&b.sample_ids, act, boundary + 1))?.0);
            }
            // With one batch held in memory, every batch but the last put
            // is read back from the backend's disk layout.
            for (b, act) in batches.iter().zip(&acts).take(CACHE_BATCHES - 1) {
                let (ms, got) = time_ms(|| cache.get_batch(&b.sample_ids, boundary + 1))?;
                gets.push(ms);
                counts.cache_gets += 1;
                if got.as_ref().map(|t| t.data() != act.data()).unwrap_or(true) {
                    counts.cache_get_failures += 1;
                }
            }
        }
        out.push(format!("cache.{name}.put_ms"), median(&puts), "ms");
        out.push(format!("cache.{name}.get_ms"), median(&gets), "ms");
    }

    let quant = (0..REPS)
        .map(|_| time_ms(|| egeria_quant::quantize_reference(&*model, cfg.reference_precision)).map(|r| r.0))
        .collect::<Result<Vec<_>>>()?;
    out.push("quant.quantize_ms", median(&quant), "ms");

    let batch = &batches[0];
    let mut refmgr = ReferenceManager::new(cfg);
    refmgr.generate(&*model)?;
    let mut a_ref = None;
    let mut captures = Vec::new();
    for _ in 0..REPS {
        let (ms, a) = time_ms(|| refmgr.capture(batch, front))?;
        captures.push(ms);
        a_ref = Some(a);
    }
    drop(refmgr);
    out.push("reference.capture_ms", median(&captures), "ms");

    let a_ref = a_ref.expect("REPS > 0");
    let a_train = model.train_step(batch, Some(front))?.captured.ok_or_else(|| {
        TensorError::Numerical(format!("no activation captured at module {front}"))
    })?;
    model.zero_grad();
    let sp = (0..SP_REPS)
        .map(|_| time_ms(|| egeria_analysis::sp_loss(&a_train, &a_ref)).map(|r| r.0 * 1e3))
        .collect::<Result<Vec<_>>>()?;
    out.push("analysis.sp_loss_us", median(&sp), "us");
    Ok(counts)
}

/// Outcome counts of the direct cache calls (each get must return exactly
/// what was put).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    pub cache_gets: usize,
    pub cache_get_failures: usize,
}
