//! Batched request plumbing for the embedding/pooling hot path.
//!
//! Serving "heavy traffic" means the embedding kernels must process whole inference
//! batches, not one request at a time. This module provides:
//!
//! * [`PoolingBatch`] — a CSR-layout batch of multi-hot pooling requests (one flat index
//!   buffer plus per-request offsets), the input format of
//!   [`EmbeddingTable::gather_pool_batch`](crate::embedding::EmbeddingTable::gather_pool_batch);
//! * [`PoolingMode`] — sum versus mean pooling;
//! * [`par_chunks`] / [`par_runs`] — scoped-thread helpers that fan
//!   a batch out across CPU cores in contiguous runs, one per worker, writing into
//!   caller-provided output slices;
//! * [`par_map`] — the same fan-out for a handful of unequal jobs, which workers claim
//!   one at a time.
//!
//! (The usual crate for these is rayon; the build environment is offline, so they are a
//! dependency-free substitute with deterministic output placement: every result lands
//! where the serial loop puts it.)
//!
//! Each call spawns its threads and joins them before returning, so the helpers serve
//! the offline studies and one-time construction (a model's parameter blocks, a
//! catalogue's signatures), never the serve path: a serving worker already owns its
//! core, and a spawn per batch would only oversubscribe the machine. The serve runtime's
//! workers are the serve path's only parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::RecsysError;

/// How pooled rows are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolingMode {
    /// Element-wise sum of the selected rows.
    Sum,
    /// Element-wise mean of the selected rows (sum for an empty request).
    Mean,
}

/// A batch of multi-hot pooling requests in CSR layout: request `i` owns the index range
/// `offsets[i]..offsets[i + 1]` of the flat `indices` buffer.
///
/// Indices are `u32` (every embedding table in the paper has far fewer than 2³² rows),
/// which halves the index-buffer traffic compared to `usize` on 64-bit targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolingBatch {
    indices: Vec<u32>,
    offsets: Vec<usize>,
}

impl PoolingBatch {
    /// Build a batch from a flat index buffer and per-request offsets.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `offsets` is empty, does not start at
    /// zero, is not monotonically non-decreasing, or does not end at `indices.len()`.
    pub fn new(indices: Vec<u32>, offsets: Vec<usize>) -> Result<Self, RecsysError> {
        if offsets.first() != Some(&0) {
            return Err(RecsysError::InvalidConfig {
                reason: "pooling batch offsets must start at 0".to_string(),
            });
        }
        if offsets.windows(2).any(|pair| pair[0] > pair[1]) {
            return Err(RecsysError::InvalidConfig {
                reason: "pooling batch offsets must be non-decreasing".to_string(),
            });
        }
        if *offsets.last().expect("checked non-empty") != indices.len() {
            return Err(RecsysError::InvalidConfig {
                reason: format!(
                    "pooling batch offsets must end at the index count ({} != {})",
                    offsets.last().expect("checked non-empty"),
                    indices.len()
                ),
            });
        }
        Ok(Self { indices, offsets })
    }

    /// Build a batch from one index list per request.
    pub fn from_requests<R: AsRef<[u32]>>(requests: &[R]) -> Self {
        let total: usize = requests.iter().map(|r| r.as_ref().len()).sum();
        let mut batch = Self {
            indices: Vec::with_capacity(total),
            offsets: Vec::with_capacity(requests.len() + 1),
        };
        batch.refill(requests);
        batch
    }

    /// Make this batch hold `requests` instead, one index list per request, in its own
    /// buffers: a refill with no more requests and lookups than the batch has held
    /// before allocates nothing.
    pub fn refill<R: AsRef<[u32]>>(&mut self, requests: impl IntoIterator<Item = R>) {
        self.indices.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for request in requests {
            self.indices.extend_from_slice(request.as_ref());
            self.offsets.push(self.indices.len());
        }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of lookups across all requests.
    pub fn total_lookups(&self) -> usize {
        self.indices.len()
    }

    /// The index list of request `i`. Panics if `i` is out of range.
    pub fn request(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The flat index buffer.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The CSR offsets (`len() + 1` entries): request `i` owns the flat index range
    /// `offsets()[i]..offsets()[i + 1]`. Lets consumers that stage per-lookup data
    /// address a request's run without recomputing prefix sums.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

impl Default for PoolingBatch {
    /// The batch of no requests.
    fn default() -> Self {
        Self::from_requests::<&[u32]>(&[])
    }
}

/// The machine's core count, queried once and cached: `available_parallelism` performs
/// a system call (≈10 µs on some virtualized hosts), which would dominate a sub-100 µs
/// batch dispatch if paid per call.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of worker threads to use for `tasks` independent tasks: one per core, never
/// more than the task count, and serial when the batch is too small to amortize a spawn.
#[inline]
pub(crate) fn worker_count(tasks: usize) -> usize {
    const MIN_TASKS_PER_WORKER: usize = 8;
    cores().min(tasks / MIN_TASKS_PER_WORKER).max(1)
}

/// `(0..jobs).map(job).collect()`, computed on every core. Workers claim the next
/// unclaimed index from one shared counter, so a few large jobs cannot leave one core
/// with most of the work the way fixed contiguous runs would; put the largest job first.
/// The calling thread runs job 0 itself, at once, and then claims like the others: the
/// largest job does not wait for a spawn, and it is always built on the same thread, so
/// where its memory comes from — and what set-up time and peak memory it costs — does
/// not change from call to call. Each result is stored at its own index, so the output
/// is the serial map's whatever the schedule: only the wall time changes, and on one
/// core it is the serial loop. A panicking job panics the caller.
pub fn par_map<T, F>(jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = cores().min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(1);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                return done;
            }
            done.push((index, job(index)));
        }
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut place = |done: Vec<(usize, T)>| {
            for (index, value) in done {
                slots[index] = Some(value);
            }
        };
        let mut mine = vec![(0, job(0))];
        mine.extend(claim());
        place(mine);
        for helper in helpers {
            place(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index below `jobs` is claimed exactly once"))
        .collect()
}

/// Split `out` into contiguous per-request chunks of `chunk_len` elements and process the
/// requests on scoped worker threads. `f` is called once per worker with the index of its
/// first request and the sub-slice covering its run of requests; it is expected to walk
/// the run with `chunks_mut(chunk_len)`. Workers receive contiguous runs, so output
/// placement is identical to the serial order regardless of the worker count.
///
/// Panics if `out.len()` is not a multiple of `chunk_len`.
#[inline]
pub fn par_chunks<F>(out: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len() % chunk_len,
        0,
        "output length {} is not a multiple of the chunk length {}",
        out.len(),
        chunk_len
    );
    let requests = out.len() / chunk_len;
    let workers = worker_count(requests);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let per_worker = requests.div_ceil(workers);
    std::thread::scope(|scope| {
        for (worker, run) in out.chunks_mut(per_worker * chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(worker * per_worker, run));
        }
    });
}

/// Split `out` into one contiguous run per worker thread and call `f` once per run with
/// the index of its first element. Workers own disjoint runs in order, so output
/// placement is identical to the serial order; per-run invocation lets callers hoist
/// scratch buffers out of the per-element loop.
#[inline]
pub fn par_runs<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = worker_count(out.len());
    if workers <= 1 {
        f(0, out);
        return;
    }
    let per_worker = out.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (worker, run) in out.chunks_mut(per_worker).enumerate() {
            let f = &f;
            scope.spawn(move || f(worker * per_worker, run));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_construction_validates_offsets() {
        assert!(PoolingBatch::new(vec![1, 2, 3], vec![0, 2, 3]).is_ok());
        assert!(PoolingBatch::new(vec![1, 2, 3], vec![]).is_err());
        assert!(PoolingBatch::new(vec![1, 2, 3], vec![1, 3]).is_err());
        assert!(PoolingBatch::new(vec![1, 2, 3], vec![0, 2]).is_err());
        assert!(PoolingBatch::new(vec![1, 2, 3], vec![0, 2, 1, 3]).is_err());
    }

    #[test]
    fn from_requests_round_trips() {
        let batch = PoolingBatch::from_requests(&[vec![1u32, 2], vec![], vec![7, 8, 9]]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.total_lookups(), 5);
        assert_eq!(batch.request(0), &[1, 2]);
        assert_eq!(batch.request(1), &[] as &[u32]);
        assert_eq!(batch.request(2), &[7, 8, 9]);
        assert_eq!(PoolingBatch::from_requests::<Vec<u32>>(&[]).len(), 0);
    }

    #[test]
    fn refill_matches_from_requests_in_the_same_buffers() {
        let large = [vec![1u32, 2, 3, 4], vec![5], vec![6, 7]];
        let small = [vec![9u32], vec![], vec![8, 7]];
        let mut batch = PoolingBatch::default();
        assert!(batch.is_empty());
        batch.refill(&large);
        assert_eq!(batch, PoolingBatch::from_requests(&large));
        let (indices, offsets) = (batch.indices().as_ptr(), batch.offsets().as_ptr());
        batch.refill(large.iter().rev().chain(&small).map(Vec::as_slice).take(3));
        assert_eq!(
            batch,
            PoolingBatch::from_requests(&[&[6u32, 7][..], &[5], &[1, 2, 3, 4]])
        );
        batch.refill(&small);
        assert_eq!(batch, PoolingBatch::from_requests(&small));
        assert_eq!(batch.indices().as_ptr(), indices, "no reallocation");
        assert_eq!(batch.offsets().as_ptr(), offsets, "no reallocation");
    }

    #[test]
    fn par_chunks_matches_serial_placement() {
        let requests = 100;
        let dim = 4;
        let mut parallel_out = vec![0.0f32; requests * dim];
        par_chunks(&mut parallel_out, dim, |first, run| {
            for (i, chunk) in run.chunks_mut(dim).enumerate() {
                chunk.fill((first + i) as f32);
            }
        });
        let expected: Vec<f32> = (0..requests)
            .flat_map(|i| std::iter::repeat_n(i as f32, dim))
            .collect();
        assert_eq!(parallel_out, expected);
    }

    #[test]
    fn par_map_matches_the_serial_map() {
        // Unequal jobs, so the claiming order differs from the index order.
        let job = |i: usize| (0..(i % 7) * 5_000).fold(i as u64, |acc, k| acc ^ (k as u64));
        for jobs in [0, 1, 2, 3, 28, 100] {
            let serial: Vec<u64> = (0..jobs).map(job).collect();
            assert_eq!(par_map(jobs, job), serial, "jobs {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn par_map_propagates_a_panicking_job() {
        par_map(16, |i| assert!(i != 5, "job {i} failed"));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn par_chunks_rejects_ragged_output() {
        let mut out = vec![0.0f32; 7];
        par_chunks(&mut out, 4, |_, _| {});
    }
}
