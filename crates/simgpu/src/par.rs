//! Deterministic chunked parallel-map, executed on the shared
//! [`ds_exec`] work-stealing pool.
//!
//! The in-tree replacement for the rayon hot paths in `ds-tensor` and
//! `ds-graph`: data is split into fixed-size chunks, contiguous runs of
//! chunks become pool tasks, and per-chunk results come back **in chunk
//! order**. Because the chunk boundaries (not the thread count or the
//! steal order) define the work units, results are bit-identical
//! whatever parallelism the host machine offers — a requirement for the
//! seeded per-chunk RNG streams used by the graph generators.
//!
//! Earlier revisions spawned scoped OS threads on every call; the hot
//! GEMM and gather paths now ride the one-time process-global pool
//! instead (`ds_exec::global()`), so overlapping pipeline stages share
//! a bounded set of compute threads rather than oversubscribing the
//! host. The submitting thread executes the first part inline and then
//! helps the pool while waiting, which also makes nested maps (a GEMM
//! issued from inside a pool task) deadlock-free.
//!
//! Thread count comes from `available_parallelism`, overridable with
//! `DS_PAR_THREADS` (set `DS_PAR_THREADS=1` to force serial execution).
//! The serial cutoff below which the pool hand-off is skipped is
//! likewise overridable with `DS_PAR_SERIAL_CUTOFF` (set it to `0` so
//! tests exercise the parallel path on small inputs). The `*_with`
//! variants take an explicit part count so the determinism suite can
//! compare thread counts within one process.
//!
//! When `DS_TRACE_REALTIME` tracing is active, each pooled map folds
//! the pool's cumulative `exec.*` counters (executed/stolen tasks,
//! queue high-water) into the calling worker's trace stream. These
//! depend on real thread timing, which is exactly why they sit behind
//! the realtime gate: default traces stay byte-deterministic.

use std::sync::OnceLock;

/// Worker threads used by the parallel maps ([`ds_exec::par_threads`]).
pub fn num_threads() -> usize {
    ds_exec::par_threads()
}

/// Default for [`serial_cutoff`]: below this many elements the pool
/// hand-off costs more than it saves.
const SERIAL_CUTOFF_DEFAULT: usize = 4096;

/// Parses a `DS_PAR_SERIAL_CUTOFF` value; `None` falls back to the
/// default, and a malformed value (the empty string included) panics
/// naming the variable and the value. Split out so the parsing is
/// testable without racing on the process environment.
fn parse_serial_cutoff(var: Option<&str>) -> usize {
    var.map_or(SERIAL_CUTOFF_DEFAULT, |v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            panic!("DS_PAR_SERIAL_CUTOFF must be a non-negative integer, got {v:?}")
        })
    })
}

/// Input length at or below which the parallel maps run serially.
/// Cached on first use, like [`num_threads`].
pub fn serial_cutoff() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| parse_serial_cutoff(std::env::var("DS_PAR_SERIAL_CUTOFF").ok().as_deref()))
}

/// Folds the pool's cumulative counters into the calling worker's
/// trace stream. Steal counts and queue depths depend on real thread
/// timing, so they are gated behind `DS_TRACE_REALTIME` — default
/// traces must stay byte-identical across same-seed runs.
fn emit_pool_trace() {
    if ds_trace::realtime() {
        let s = ds_exec::stats();
        ds_trace::counter_at_last_seen("exec", "executed", (s.executed + s.helped) as f64);
        ds_trace::counter_at_last_seen("exec", "stolen", s.stolen as f64);
        ds_trace::counter_at_last_seen(
            "exec",
            "queue_peak",
            s.max_injector_depth.max(s.max_deque_depth) as f64,
        );
    }
}

/// Applies `f` to each `chunk`-sized slice of `data` (last one may be
/// shorter), passing the chunk index; returns per-chunk results in
/// chunk order.
pub fn chunk_map_mut<T, R, F>(data: &mut [T], chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    chunk_map_mut_with(num_threads(), data, chunk, f)
}

/// [`chunk_map_mut`] with an explicit part count. Output is identical
/// for every `threads` value — chunk boundaries define the work units —
/// which is what the determinism suite asserts.
pub fn chunk_map_mut_with<T, R, F>(threads: usize, data: &mut [T], chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    // An empty buffer has no chunks whatever `chunk` is — tolerate it
    // before the assert so zero-dim matrices (gathers with `dim == 0`)
    // stay the no-op the old serial copy loops made them.
    if data.is_empty() {
        return Vec::new();
    }
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    let nchunks = len.div_ceil(chunk);
    let threads = threads.min(nchunks);
    if threads <= 1 || len <= serial_cutoff() {
        return data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let chunks_per_part = nchunks.div_ceil(threads);
    // Hand each task its disjoint `&mut` part through a take-once slot;
    // the pool's map keeps every borrow alive until the whole set ran.
    let mut parts: Vec<std::sync::Mutex<Option<(usize, &mut [T])>>> = Vec::with_capacity(threads);
    let mut rest = data;
    let mut next_chunk = 0usize;
    while !rest.is_empty() {
        let take = (chunks_per_part * chunk).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        parts.push(std::sync::Mutex::new(Some((next_chunk, head))));
        next_chunk += chunks_per_part;
        rest = tail;
    }
    let f = &f;
    let per_part: Vec<Vec<R>> = ds_exec::global().map_indexed(parts.len(), |pi| {
        let (first, slice) = parts[pi]
            .lock()
            .expect("part slot")
            .take()
            .expect("part taken once");
        slice
            .chunks_mut(chunk)
            .enumerate()
            .map(|(j, c)| f(first + j, c))
            .collect::<Vec<R>>()
    });
    emit_pool_trace();
    per_part.into_iter().flatten().collect()
}

/// Read-only variant of [`chunk_map_mut`].
pub fn chunk_map<T, R, F>(data: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    chunk_map_with(num_threads(), data, chunk, f)
}

/// [`chunk_map`] with an explicit part count (see
/// [`chunk_map_mut_with`]).
pub fn chunk_map_with<T, R, F>(threads: usize, data: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    // See chunk_map_mut_with: empty data has no chunks even at chunk 0.
    if data.is_empty() {
        return Vec::new();
    }
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    let nchunks = len.div_ceil(chunk);
    let threads = threads.min(nchunks);
    if threads <= 1 || len <= serial_cutoff() {
        return data
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let chunks_per_part = nchunks.div_ceil(threads);
    let f = &f;
    let per_part: Vec<Vec<R>> = ds_exec::global().map_indexed(threads, |t| {
        let first = t * chunks_per_part;
        let lo = (first * chunk).min(len);
        let hi = ((first + chunks_per_part) * chunk).min(len);
        data[lo..hi]
            .chunks(chunk)
            .enumerate()
            .map(|(j, c)| f(first + j, c))
            .collect::<Vec<R>>()
    });
    emit_pool_trace();
    per_part.into_iter().flatten().collect()
}

/// Applies `f(index, &mut element)` across `data` in parallel.
pub fn apply_indexed<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk = len.div_ceil(num_threads() * 4).max(1);
    chunk_map_mut(data, chunk, |ci, slice| {
        let base = ci * chunk;
        for (j, x) in slice.iter_mut().enumerate() {
            f(base + j, x);
        }
    });
}

/// Runs `f(0..n)` in parallel and concatenates the produced vectors in
/// index order — the replacement for `into_par_iter().flat_map_iter()`.
pub fn flat_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> Vec<R> + Sync,
{
    flat_map_indexed_with(num_threads(), n, f)
}

/// [`flat_map_indexed`] with an explicit part count (see
/// [`chunk_map_mut_with`]).
pub fn flat_map_indexed_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> Vec<R> + Sync,
{
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).flat_map(&f).collect();
    }
    let per_part_n = n.div_ceil(threads);
    let f = &f;
    let per_part: Vec<Vec<R>> = ds_exec::global().map_indexed(threads, |t| {
        let lo = t * per_part_n;
        let hi = ((t + 1) * per_part_n).min(n);
        (lo..hi).flat_map(f).collect::<Vec<R>>()
    });
    emit_pool_trace();
    per_part.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_map_mut_matches_serial_and_preserves_order() {
        let mut data: Vec<u64> = (0..20_000).collect();
        let sums = chunk_map_mut(&mut data, 173, |i, c| {
            for x in c.iter_mut() {
                *x += i as u64;
            }
            c.iter().sum::<u64>()
        });
        let mut expect: Vec<u64> = (0..20_000).collect();
        let expect_sums: Vec<u64> = expect
            .chunks_mut(173)
            .enumerate()
            .map(|(i, c)| {
                for x in c.iter_mut() {
                    *x += i as u64;
                }
                c.iter().sum::<u64>()
            })
            .collect();
        assert_eq!(data, expect);
        assert_eq!(sums, expect_sums);
    }

    #[test]
    fn chunk_map_handles_tiny_inputs() {
        let data = [1u32, 2, 3];
        assert_eq!(
            chunk_map(&data, 2, |i, c| (i, c.to_vec())),
            vec![(0, vec![1, 2]), (1, vec![3]),]
        );
        let empty: [u32; 0] = [];
        assert!(chunk_map(&empty, 4, |_, c| c.len()).is_empty());
    }

    #[test]
    fn zero_chunk_on_empty_data_is_a_noop() {
        // A zero-dim feature matrix hands the gathers an empty buffer
        // with chunk == dim == 0; that must be a no-op, not a panic.
        let mut empty: [f32; 0] = [];
        assert!(chunk_map_mut(&mut empty, 0, |_, c| c.len()).is_empty());
        assert!(chunk_map(&empty, 0, |_, c| c.len()).is_empty());
    }

    #[test]
    fn apply_indexed_sees_global_indices() {
        let mut data = vec![0usize; 10_000];
        apply_indexed(&mut data, |i, x| *x = i * 3);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn serial_cutoff_parsing_accepts_numbers_and_rejects_malformed() {
        assert_eq!(parse_serial_cutoff(None), SERIAL_CUTOFF_DEFAULT);
        assert_eq!(parse_serial_cutoff(Some("0")), 0);
        assert_eq!(parse_serial_cutoff(Some("128")), 128);
        // Garbage aborts instead of silently running at the default.
        for bad in ["tiny", "", "-1", " 4"] {
            let err = std::panic::catch_unwind(|| parse_serial_cutoff(Some(bad))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("DS_PAR_SERIAL_CUTOFF") && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn flat_map_indexed_concatenates_in_order() {
        let got = flat_map_indexed(57, |i| vec![i; i % 4]);
        let expect: Vec<usize> = (0..57).flat_map(|i| vec![i; i % 4]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn explicit_part_counts_are_bit_identical() {
        // The `*_with` contract behind the determinism suite: the part
        // count changes scheduling, never results. Large enough to pass
        // the default serial cutoff on the multi-part runs.
        let data: Vec<u64> = (0..50_000).map(|i| i * 7 + 1).collect();
        let serial = chunk_map_with(1, &data, 97, |i, c| (i as u64) ^ c.iter().sum::<u64>());
        for threads in [2usize, 3, 8, 64] {
            let got = chunk_map_with(threads, &data, 97, |i, c| {
                (i as u64) ^ c.iter().sum::<u64>()
            });
            assert_eq!(got, serial, "threads={threads}");
        }
        let fserial = flat_map_indexed_with(1, 301, |i| vec![i as u32; i % 5]);
        for threads in [2usize, 8] {
            assert_eq!(
                flat_map_indexed_with(threads, 301, |i| vec![i as u32; i % 5]),
                fserial
            );
        }
        let mut a: Vec<u64> = (0..50_000).collect();
        let mut b = a.clone();
        chunk_map_mut_with(2, &mut a, 173, |i, c| {
            c.iter_mut().for_each(|x| *x += i as u64)
        });
        chunk_map_mut_with(8, &mut b, 173, |i, c| {
            c.iter_mut().for_each(|x| *x += i as u64)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn nested_maps_complete_on_the_shared_pool() {
        // A pooled map issued from inside a pooled map (the pipeline
        // worker → GEMM shape) must not deadlock however busy the pool.
        // Both levels exceed the default serial cutoff, so both really
        // ride the pool.
        let outer: Vec<u64> = (0..5_000).map(|i| i as u64).collect();
        let got = chunk_map_with(8, &outer, 100, |ci, c| {
            let inner: Vec<u64> = (0..8_192).map(|j| j as u64 + c[0]).collect();
            let sums = chunk_map_with(4, &inner, 512, |_, s| s.iter().sum::<u64>());
            (ci as u64) + sums.into_iter().sum::<u64>()
        });
        let expect = outer
            .chunks(100)
            .enumerate()
            .map(|(ci, c)| {
                let inner: Vec<u64> = (0..8_192).map(|j| j as u64 + c[0]).collect();
                (ci as u64) + inner.iter().sum::<u64>()
            })
            .collect::<Vec<_>>();
        assert_eq!(got, expect);
    }
}
