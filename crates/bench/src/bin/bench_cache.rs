//! Activation-cache benchmark: `BENCH_cache.json`.
//!
//! Runs the same put-everything-then-read-everything workload against the
//! two store configurations that matter (DESIGN §5j):
//!
//! - **chunked** — the egeria-store chunk/shard layout with the lossless
//!   shuffle+LZ codec (bit-exact),
//! - **chunked_int8** — the same store with the opt-in lossy int8
//!   re-quantization transform.
//!
//! The workload caches ReLU-sparse activations (about half the values are
//! exact zeros, like real post-ReLU feature maps) so the codec sees
//! realistic input. Each scenario reports put/get throughput, the on-disk
//! footprint and file count, the batch hit rate, and the codec ratio.
//! Pass `--smoke` for a fast small run with the same report shape.

use egeria_bench::write_json;
use egeria_core::cache::ActivationCache;
use egeria_store::{StoreCodec, StoreConfig};
use egeria_tensor::{Rng, Tensor};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    samples: usize,
    put_samples_per_s: f64,
    get_samples_per_s: f64,
    disk_bytes: u64,
    file_count: u64,
    hits: usize,
    misses: usize,
    hit_rate: f64,
    corrupt_entries: usize,
    write_errors: usize,
    codec_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    samples: usize,
    batch: usize,
    sample_floats: usize,
    scenarios: Vec<ScenarioReport>,
}

/// A batch of post-ReLU-like conv activations, with the two kinds of
/// structure real feature maps carry and the codec exploits:
///
/// - **dead channels** (dying ReLU / channel selectivity): whole `hw`
///   spans of exact zeros, and
/// - **spatial correlation** inside active channels: an AR(1)
///   pre-activation whose negative excursions ReLU into *runs* of zeros
///   rather than isolated ones.
///
/// Unstructured iid sparsity would be unfairly hard on any LZ-class
/// codec (isolated 4-byte zeros never reach MIN_MATCH after shuffling)
/// and is not what trained networks produce.
fn relu_sparse_batch(rng: &mut Rng, rows: usize, channels: usize, hw: usize) -> Tensor {
    let mut data = Vec::with_capacity(rows * channels * hw);
    for _ in 0..rows {
        for _ in 0..channels {
            if rng.uniform() < 0.5 {
                // Dead channel: exact zeros end to end.
                data.extend(std::iter::repeat_n(0.0f32, hw));
                continue;
            }
            let mut v = 0.0f32;
            for _ in 0..hw {
                v = 0.8 * v + 0.6 * rng.normal();
                data.push(if v > 0.0 { v } else { 0.0 });
            }
        }
    }
    Tensor::from_vec(data, &[rows, channels * hw]).expect("batch shape")
}

/// Recursive on-disk footprint of a cache directory.
fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0u64;
    let mut files = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(meta) = e.metadata() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("egeria_bench_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    mut cache: ActivationCache,
    dir: &Path,
    samples: usize,
    batch: usize,
    channels: usize,
    hw: usize,
) -> ScenarioReport {
    let mut rng = Rng::new(7);
    let ids_of = |b: usize| -> Vec<u64> { (0..batch).map(|r| (b * batch + r) as u64).collect() };
    let batches = samples / batch;

    let put_start = Instant::now();
    for b in 0..batches {
        let act = relu_sparse_batch(&mut rng, batch, channels, hw);
        cache.put_batch(&ids_of(b), &act, 1).expect("put");
    }
    cache.persist().expect("persist");
    let put_s = put_start.elapsed().as_secs_f64();

    let get_start = Instant::now();
    for b in 0..batches {
        let got = cache.get_batch(&ids_of(b), 1).expect("get");
        assert!(got.is_some(), "cached batch {b} must hit");
    }
    let get_s = get_start.elapsed().as_secs_f64();

    let (disk_bytes, file_count) = disk_usage(dir);
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1);
    let codec_ratio = cache.store_stats().codec_ratio();
    let report = ScenarioReport {
        name: name.to_string(),
        samples,
        put_samples_per_s: samples as f64 / put_s.max(1e-9),
        get_samples_per_s: samples as f64 / get_s.max(1e-9),
        disk_bytes,
        file_count,
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hits as f64 / lookups as f64,
        corrupt_entries: stats.corrupt_entries,
        write_errors: stats.write_errors,
        codec_ratio,
    };
    let _ = std::fs::remove_dir_all(dir);
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = if smoke { 2_000 } else { 10_000 };
    let batch = 50;
    let (channels, hw) = if smoke { (16, 16) } else { (32, 16) };
    let feat = channels * hw;
    // A small memory window forces the get phase onto the disk path —
    // the number the codecs actually differ on.
    let mem_batches = 2;
    eprintln!(
        "bench_cache{}: {samples} samples x {feat} floats, batch {batch}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut scenarios = Vec::new();

    let chunked_dir = bench_dir("chunked");
    scenarios.push(run_scenario(
        "chunked",
        ActivationCache::with_store(&chunked_dir, mem_batches, StoreConfig::default())
            .expect("chunked cache"),
        &chunked_dir,
        samples,
        batch,
        channels,
        hw,
    ));

    let int8_dir = bench_dir("chunked_int8");
    scenarios.push(run_scenario(
        "chunked_int8",
        ActivationCache::with_store(
            &int8_dir,
            mem_batches,
            StoreConfig {
                codec: StoreCodec::Int8,
                ..StoreConfig::default()
            },
        )
        .expect("int8 cache"),
        &int8_dir,
        samples,
        batch,
        channels,
        hw,
    ));

    let report = Report {
        smoke,
        samples,
        batch,
        sample_floats: feat,
        scenarios,
    };
    for s in &report.scenarios {
        eprintln!(
            "{:<14} put {:>10.0}/s  get {:>10.0}/s  {:>12} bytes in {:>6} files  hit_rate {:.3}  codec {:.2}x",
            s.name, s.put_samples_per_s, s.get_samples_per_s, s.disk_bytes, s.file_count, s.hit_rate, s.codec_ratio
        );
    }
    write_json(Path::new("BENCH_cache.json"), &report).expect("write BENCH_cache.json");
    eprintln!("wrote BENCH_cache.json");
}
