//! Step timing from outside the trainer.
//!
//! The workload's train and validation datasets are wrapped so every
//! `materialize` call is timestamped. A training step is the gap from one
//! train `materialize` call to the next call on either wrapper, so the
//! validation pass that follows an epoch's last step never falls inside a
//! step; it is attributed to evaluation instead.

use egeria_core::trainer::TrainReport;
use egeria_data::Dataset;
use egeria_models::Batch;
use egeria_tensor::{Result, TensorError};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which wrapper a `materialize` call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Train,
    Val,
}

/// One timestamped `materialize` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Seconds from the log's origin to the call's entry.
    pub at_s: f64,
    /// Time spent inside the wrapped `materialize`.
    pub busy_s: f64,
    pub source: Source,
}

/// The shared call log of one training run.
pub struct CallLog {
    origin: Instant,
    calls: Mutex<Vec<Call>>,
    /// When set, the train call with this 0-based index fails instead of
    /// materializing: a set-up probe stops the run as its first step ends.
    stop_at_train_call: Option<usize>,
}

impl CallLog {
    pub fn new(origin: Instant, stop_at_train_call: Option<usize>) -> Arc<Self> {
        Arc::new(CallLog {
            origin,
            calls: Mutex::new(Vec::new()),
            stop_at_train_call,
        })
    }

    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().expect("call log poisoned").clone()
    }

    /// Seconds from the origin to the entry of the train call with index
    /// `i`, if it happened.
    pub fn train_call_at(&self, i: usize) -> Option<f64> {
        self.calls()
            .iter()
            .filter(|c| c.source == Source::Train)
            .nth(i)
            .map(|c| c.at_s)
    }
}

/// A dataset that records each `materialize` call in a [`CallLog`].
pub struct Timed {
    inner: Box<dyn Dataset>,
    log: Arc<CallLog>,
    source: Source,
}

impl Timed {
    pub fn new(inner: Box<dyn Dataset>, log: Arc<CallLog>, source: Source) -> Self {
        Timed { inner, log, source }
    }
}

impl Dataset for Timed {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn materialize(&self, indices: &[usize]) -> Result<Batch> {
        let entered = Instant::now();
        // The trainer calls this from one thread, so holding the log's lock
        // across the inner call costs nothing and keeps one acquisition.
        let mut calls = self.log.calls.lock().expect("call log poisoned");
        let stop = self.source == Source::Train
            && self.log.stop_at_train_call.is_some_and(|n| {
                calls.iter().filter(|c| c.source == Source::Train).count() == n
            });
        let out = if stop {
            Err(TensorError::Io("set-up probe complete".into()))
        } else {
            self.inner.materialize(indices)
        };
        calls.push(Call {
            at_s: entered.duration_since(self.log.origin).as_secs_f64(),
            busy_s: entered.elapsed().as_secs_f64(),
            source: self.source,
        });
        out
    }
}

/// Step and evaluation durations recovered from a call log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// One entry per training step, in order, in milliseconds.
    pub steps_ms: Vec<f64>,
    /// One entry per validation pass, in milliseconds.
    pub evals_ms: Vec<f64>,
}

/// Splits a run's wall time into training steps and validation passes.
/// `end_s` is when `train()` returned, closing the final step or pass.
pub fn attribute(calls: &[Call], end_s: f64) -> Attribution {
    let mut out = Attribution::default();
    let next_at = |i: usize| calls.get(i + 1).map(|c| c.at_s).unwrap_or(end_s);
    let mut eval_start: Option<f64> = None;
    for (i, c) in calls.iter().enumerate() {
        match c.source {
            Source::Train => {
                if let Some(s) = eval_start.take() {
                    out.evals_ms.push((c.at_s - s) * 1e3);
                }
                out.steps_ms.push((next_at(i) - c.at_s) * 1e3);
            }
            Source::Val => {
                eval_start.get_or_insert(c.at_s);
            }
        }
    }
    if let Some(s) = eval_start {
        out.evals_ms.push((end_s - s) * 1e3);
    }
    out
}

/// What a training step did, as the trainer reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Plain full step (no frozen prefix, no probe).
    Full,
    /// Plasticity probe: listed in `report.plasticity`.
    Probe,
    /// Frozen prefix recomputed (cache fill): prefix > 0, neither a cache
    /// hit nor a probe.
    Fill,
    /// Frozen prefix served from the activation cache.
    Cached,
}

/// The frozen prefix each iteration ran under: the one the previous
/// iteration ended with (iteration records carry the prefix after the
/// step's own freeze decision).
pub fn prefixes_run_under(report: &TrainReport) -> Vec<u16> {
    std::iter::once(0)
        .chain(report.iterations.iter().map(|it| it.frozen_prefix))
        .take(report.iterations.len())
        .collect()
}

/// Classifies every iteration of a report.
pub fn classify(report: &TrainReport) -> Vec<Phase> {
    let probes: BTreeSet<usize> = report.plasticity.iter().map(|p| p.iteration).collect();
    report
        .iterations
        .iter()
        .zip(prefixes_run_under(report))
        .enumerate()
        .map(|(i, (it, prefix))| {
            if probes.contains(&i) {
                Phase::Probe
            } else if it.fp_cached {
                Phase::Cached
            } else if prefix > 0 {
                Phase::Fill
            } else {
                Phase::Full
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_core::trainer::{IterationRecord, PlasticityPoint};

    fn call(at_s: f64, source: Source) -> Call {
        Call {
            at_s,
            busy_s: 0.0,
            source,
        }
    }

    #[test]
    fn validation_gaps_are_never_counted_as_steps() {
        use Source::{Train as T, Val as V};
        // Epoch 0: steps at 0, 1, 3; validation 6..10. Epoch 1: steps at
        // 10, 12; validation 15..end (20).
        let calls = [
            call(0.0, T),
            call(1.0, T),
            call(3.0, T),
            call(6.0, V),
            call(8.0, V),
            call(10.0, T),
            call(12.0, T),
            call(15.0, V),
        ];
        let a = attribute(&calls, 20.0);
        assert_eq!(a.steps_ms, vec![1e3, 2e3, 3e3, 2e3, 3e3]);
        assert_eq!(a.evals_ms, vec![4e3, 5e3]);
        let total: f64 = a.steps_ms.iter().chain(&a.evals_ms).sum();
        assert_eq!(total, 20e3);
    }

    #[test]
    fn a_run_without_validation_ends_its_last_step_at_return() {
        let calls = [call(0.5, Source::Train), call(2.0, Source::Train)];
        let a = attribute(&calls, 2.5);
        assert_eq!(a.steps_ms, vec![1.5e3, 0.5e3]);
        assert!(a.evals_ms.is_empty());
        assert_eq!(attribute(&[], 1.0), Attribution::default());
    }

    fn iter(frozen_prefix: u16, fp_cached: bool) -> IterationRecord {
        IterationRecord {
            epoch: 0,
            frozen_prefix,
            fp_cached,
        }
    }

    fn probe(iteration: usize) -> PlasticityPoint {
        PlasticityPoint {
            iteration,
            module: 0,
            raw: 0.1,
            smoothed: 0.1,
        }
    }

    #[test]
    fn phases_follow_the_prefix_each_step_ran_under() {
        let report = TrainReport {
            // Step 1 is a probe that freezes module 0; step 2 refills the
            // cache at prefix 1; step 3 hits; step 4 probes again; step 5
            // follows an unfreeze recorded at step 4.
            iterations: vec![
                iter(0, false),
                iter(1, false),
                iter(1, false),
                iter(1, true),
                iter(0, false),
                iter(0, false),
            ],
            plasticity: vec![probe(1), probe(4)],
            ..Default::default()
        };
        use Phase::*;
        assert_eq!(
            classify(&report),
            vec![Full, Probe, Fill, Cached, Probe, Full]
        );
    }

    #[test]
    fn setup_probe_stops_at_the_second_train_call() {
        struct Three;
        impl Dataset for Three {
            fn len(&self) -> usize {
                3
            }
            fn materialize(&self, _: &[usize]) -> Result<Batch> {
                Err(TensorError::Numerical("not needed".into()))
            }
        }
        let log = CallLog::new(Instant::now(), Some(1));
        let train = Timed::new(Box::new(Three), Arc::clone(&log), Source::Train);
        let val = Timed::new(Box::new(Three), Arc::clone(&log), Source::Val);
        let first = train.materialize(&[0]).unwrap_err();
        assert!(first.to_string().contains("not needed"));
        let _ = val.materialize(&[0]);
        let second = train.materialize(&[0]).unwrap_err();
        assert!(second.to_string().contains("set-up probe complete"));
        assert_eq!(log.calls().len(), 3);
        assert!(log.train_call_at(1).is_some());
        assert!(log.train_call_at(2).is_none());
    }
}
