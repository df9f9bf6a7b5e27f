//! Cached-FP correctness: serving the frozen prefix from the activation
//! cache must not change training at all.
//!
//! This is the load-bearing §4.3 invariant — a frozen module in eval mode
//! is a pure function of its input, stateless augmentation pins the input
//! per sample id, so the cached boundary activation must reproduce the full
//! forward bit-for-bit, making gradients (and thus the whole training
//! trajectory) identical.

use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_nn::optim::Sgd;
use egeria_tensor::{Rng, Tensor};

fn model() -> impl Model {
    resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        99,
    )
}

fn batch(seed: u64) -> Batch {
    let mut rng = Rng::new(seed);
    Batch {
        input: Input::Image(Tensor::randn(&[8, 3, 8, 8], &mut rng)),
        targets: Targets::Classes((0..8).map(|i| i % 4).collect()),
        sample_ids: (0..8).collect(),
    }
}

#[test]
fn cached_forward_matches_full_forward_exactly() {
    let mut full = model();
    let mut cached = model();
    let prefix = 2;
    full.freeze_prefix(prefix).unwrap();
    cached.freeze_prefix(prefix).unwrap();
    let mut opt_a = Sgd::new(0.05, 0.9, 0.0);
    let mut opt_b = Sgd::new(0.05, 0.9, 0.0);
    for step in 0..5 {
        let b = batch(step);
        // Path A: full forward, capturing the boundary activation.
        let ra = full.train_step(&b, Some(prefix - 1)).unwrap();
        let boundary = ra.captured.clone().unwrap();
        // Path B: resume from the captured activation (the cache path).
        let rb = cached.train_step_from(&b, prefix, &boundary, None).unwrap();
        assert!(
            (ra.loss - rb.loss).abs() < 1e-6,
            "step {step}: loss {} vs {}",
            ra.loss,
            rb.loss
        );
        assert_eq!(ra.modules_backpropped, rb.modules_backpropped);
        opt_a.step(&mut full.params_mut()).unwrap();
        opt_b.step(&mut cached.params_mut()).unwrap();
        full.zero_grad();
        cached.zero_grad();
        // Weights stay in lockstep.
        for (pa, pb) in full.params().iter().zip(cached.params().iter()) {
            assert!(
                pa.value.allclose(&pb.value, 1e-6),
                "step {step}: parameter {} diverged",
                pa.name
            );
        }
    }
}

#[test]
fn frozen_prefix_output_is_deterministic_across_calls() {
    let mut m = model();
    m.freeze_prefix(1).unwrap();
    let b = batch(7);
    let a1 = m.capture_activation(&b, 0).unwrap();
    // Interleave a training step on the *active* suffix; the frozen
    // prefix's output for the same input must not move.
    let _ = m.train_step(&b, None).unwrap();
    let mut opt = Sgd::new(0.1, 0.0, 0.0);
    opt.step(&mut m.params_mut()).unwrap();
    m.zero_grad();
    let a2 = m.capture_activation(&b, 0).unwrap();
    assert_eq!(a1, a2, "frozen module output drifted after active-layer updates");
}

#[test]
fn unfrozen_module_output_does_move() {
    // Control for the test above: without freezing, the same module's
    // output must change after an update.
    let mut m = model();
    let b = batch(7);
    let a1 = m.capture_activation(&b, 0).unwrap();
    let _ = m.train_step(&b, None).unwrap();
    let mut opt = Sgd::new(0.1, 0.0, 0.0);
    opt.step(&mut m.params_mut()).unwrap();
    m.zero_grad();
    let a2 = m.capture_activation(&b, 0).unwrap();
    assert_ne!(a1, a2);
}

#[test]
fn cache_round_trip_preserves_training_equivalence() {
    // Same as the exact-match test but routing the boundary activation
    // through the real disk cache (serialize → write → read → concat).
    use egeria_core::cache::ActivationCache;
    let dir = std::env::temp_dir().join(format!("egeria_it_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache = ActivationCache::new(&dir, 4).unwrap();
    let mut m = model();
    let prefix = 1;
    m.freeze_prefix(prefix).unwrap();
    let b = batch(3);
    let r = m.train_step(&b, Some(prefix - 1)).unwrap();
    let boundary = r.captured.unwrap();
    m.zero_grad();
    cache.put_batch(&b.sample_ids, &boundary, prefix).unwrap();
    let loaded = cache.get_batch(&b.sample_ids, prefix).unwrap().unwrap();
    assert_eq!(loaded, boundary, "disk round trip altered the activation");
    let r2 = m.train_step_from(&b, prefix, &loaded, None).unwrap();
    assert!((r.loss - r2.loss).abs() < 1e-6);
}

#[test]
fn trained_run_serves_cache_hits_from_shard_files() {
    // The trainer's cached-FP path end to end: once the frozen prefix
    // stabilises, lookups hit, the activations went through the store's
    // write accounting, and the cache dir holds shard files rather than
    // one file per sample.
    use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
    use egeria_core::EgeriaConfig;
    use egeria_data::images::{ImageDataConfig, SyntheticImages};
    use egeria_data::DataLoader;
    use egeria_nn::sched::MultiStepDecay;
    let dir = std::env::temp_dir().join(format!("egeria_it_run_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let mut trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])),
        TrainerOptions {
            // Long enough for the frozen prefix to hold for several
            // epochs, so the cache serves hits and not just fills.
            epochs: 14,
            egeria: Some(EgeriaConfig {
                n: 2,
                w: 3,
                s: 2,
                t: 5.0,
                bootstrap_rate: 0.9,
                reference_update_every: 4,
                ..Default::default()
            }),
            cache_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: true,
        },
        2,
    );
    let loader = DataLoader::new(64, 16, 3, true);
    let report = trainer.train(&data, &loader, None).expect("run trains");

    assert!(!report.events.is_empty(), "nothing froze; the cache was never used");
    assert!(report.cache_stats.hits > 0, "the run served no cache hits");
    assert!(report.cache_stats.disk_bytes_written > 0);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".egs")),
        "no shard files in {}: {names:?}",
        dir.display()
    );
    assert!(
        !names.iter().any(|n| n.starts_with("sample_")),
        "per-sample files in {}: {names:?}",
        dir.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
