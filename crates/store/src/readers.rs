//! The concurrent shard reader pool.
//!
//! A chunked lookup that misses memory may need extents from several
//! shard files at once (a shuffled batch of 32 ids can straddle a handful
//! of chunks). Reading them sequentially serializes on disk latency; the
//! pool fans the extent reads across a few worker threads instead, which
//! is what lets the prefetcher hide chunk decode + I/O behind compute.
//!
//! Determinism: workers race on I/O only. Results are slotted back by
//! request index, so the caller always sees them in request order no
//! matter which worker finished first, and a read failure is a value
//! (`Err` in that slot), never a panic — the store maps it to chunk
//! quarantine. Workers hold no store state; they turn `(path, offset,
//! len)` into bytes and nothing else.

use crossbeam::channel::{bounded, Receiver, Sender};
use egeria_tensor::{Result, TensorError};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One extent to fetch.
#[derive(Debug, Clone)]
pub struct ExtentReq {
    /// Shard file to read from.
    pub path: PathBuf,
    /// Byte offset of the extent.
    pub offset: u64,
    /// Extent length in bytes.
    pub len: u32,
}

struct Job {
    index: usize,
    req: ExtentReq,
    done: mpsc::Sender<(usize, Result<Vec<u8>>)>,
}

/// A fixed pool of shard reader threads.
pub struct ReaderPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReaderPool {
    /// Spawns `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ReaderPool {
        let threads = threads.max(1);
        let (tx, rx) = bounded::<Job>(threads * 4);
        let workers = (0..threads)
            .map(|_| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let out = read_extent(&job.req);
                        // The requester may have given up (its receiver
                        // dropped); that is not the worker's problem.
                        let _ = job.done.send((job.index, out));
                    }
                })
            })
            .collect();
        ReaderPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Fetches every extent, returning results in request order. Failures
    /// come back as per-slot `Err`s so one bad shard never hides the
    /// others.
    pub fn read_extents(&self, reqs: Vec<ExtentReq>) -> Vec<Result<Vec<u8>>> {
        let n = reqs.len();
        if n == 0 {
            return Vec::new();
        }
        // A single extent is not worth a thread handoff.
        if n == 1 {
            return vec![read_extent(&reqs[0])];
        }
        let (done_tx, done_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("reader pool already shut down");
        for (index, req) in reqs.into_iter().enumerate() {
            let job = Job {
                index,
                req,
                done: done_tx.clone(),
            };
            if let Err(e) = tx.send(job) {
                // Channel closed mid-shutdown: fail this slot inline.
                let _ = done_tx.send((
                    e.0.index,
                    Err(TensorError::Io("reader pool shut down".into())),
                ));
            }
        }
        drop(done_tx);
        let mut out: Vec<Result<Vec<u8>>> = (0..n)
            .map(|_| Err(TensorError::Io("shard read never completed".into())))
            .collect();
        while let Ok((index, res)) = done_rx.recv() {
            out[index] = res;
        }
        out
    }
}

impl Drop for ReaderPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel so workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Reads one extent synchronously (no pool handoff).
pub fn read_one(req: &ExtentReq) -> Result<Vec<u8>> {
    read_extent(req)
}

/// Reads one extent, validating that the file actually contains it.
fn read_extent(req: &ExtentReq) -> Result<Vec<u8>> {
    let mut f = std::fs::File::open(&req.path)?;
    let file_len = f.metadata()?.len();
    let end = req.offset + req.len as u64;
    if end > file_len {
        return Err(TensorError::Corrupt(format!(
            "shard {}: extent [{}, {end}) past file end {file_len}",
            req.path.display(),
            req.offset
        )));
    }
    f.seek(SeekFrom::Start(req.offset))?;
    let mut buf = vec![0u8; req.len as usize];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("egeria-readers-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn reads_come_back_in_request_order() {
        let dir = tmp_dir("order");
        let mut reqs = Vec::new();
        for i in 0..20u8 {
            let p = dir.join(format!("f{i}"));
            std::fs::write(&p, vec![i; 64]).unwrap();
            reqs.push(ExtentReq {
                path: p,
                offset: 8,
                len: 16,
            });
        }
        let pool = ReaderPool::new(4);
        let got = pool.read_extents(reqs);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &vec![i as u8; 16]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failures_are_per_slot() {
        let dir = tmp_dir("fail");
        let good = dir.join("good");
        std::fs::write(&good, vec![1u8; 32]).unwrap();
        let pool = ReaderPool::new(2);
        let got = pool.read_extents(vec![
            ExtentReq {
                path: good.clone(),
                offset: 0,
                len: 32,
            },
            ExtentReq {
                path: dir.join("missing"),
                offset: 0,
                len: 4,
            },
            ExtentReq {
                path: good,
                offset: 16,
                len: 32, // past end of file
            },
        ]);
        assert!(got[0].is_ok());
        assert!(got[1].is_err());
        assert!(got[2].is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_single_requests() {
        let pool = ReaderPool::new(2);
        assert!(pool.read_extents(Vec::new()).is_empty());
        let dir = tmp_dir("single");
        let p = dir.join("one");
        std::fs::write(&p, b"abcdef").unwrap();
        let got = pool.read_extents(vec![ExtentReq {
            path: p,
            offset: 2,
            len: 3,
        }]);
        assert_eq!(got[0].as_ref().unwrap(), b"cde");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
