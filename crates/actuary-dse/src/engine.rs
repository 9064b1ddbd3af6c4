//! Parallel work distribution shared by the exploration engines.
//!
//! The work list is cut into [`chunk_for`]-sized ranges, and workers claim
//! them in order from one shared atomic cursor: a worker that finishes a
//! range takes the next unclaimed one, so a stretch of expensive items
//! (a refinement wave can concentrate every costly cell in one part of
//! the list) spreads over whichever workers are free instead of
//! serializing behind one. Results are kept per range and concatenated by
//! range start, so the output is independent of both the thread count
//! and the claim order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many work items one range covers, scaled to the work list: small
/// lists keep a fine 16-item grain (a grid of a few hundred cells still
/// load-balances across threads), while huge refine-mode lists take
/// ranges of up to 2,048 items so per-range bookkeeping stays off the
/// profile. Targets ~64 ranges per worker: a range is the unit of
/// balance, and one oversized range pinning every expensive cell to a
/// single worker is exactly the skew the shared cursor exists to avoid.
pub(crate) fn chunk_for(items: usize, threads: usize) -> usize {
    (items / (threads.max(1) * 64)).clamp(16, 2048)
}

/// Resolves a requested worker count (`0` = the machine's available
/// parallelism) against the size of the work list.
pub(crate) fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    threads.min(work_items).max(1)
}

/// Evaluates `eval(index, item)` for every item on `threads` scoped worker
/// threads; returns the results in item order regardless of which worker
/// ran what.
pub(crate) fn run_chunked<T, R, F>(items: &[T], threads: usize, eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let out = run_chunked_into(items, threads, |i, item, out| out.push(eval(i, item)));
    debug_assert_eq!(out.len(), items.len());
    out
}

/// Like [`run_chunked`], but `eval(index, item, out)` appends any number
/// of results to `out`: one worker appends straight into the returned
/// list, and several fill one list per claimed range, concatenated in
/// item order.
pub(crate) fn run_chunked_into<T, R, F>(items: &[T], threads: usize, eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut Vec<R>) + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        // No scheduler to pay for: one worker, ascending order.
        let mut out = Vec::new();
        for (i, item) in items.iter().enumerate() {
            eval(i, item, &mut out);
        }
        return out;
    }
    let chunk = chunk_for(items.len(), threads);
    // The start of the next unclaimed range. `Relaxed` suffices: the
    // cursor publishes no data (the items are shared read-only, and the
    // results travel through the lock and the scope's join).
    let cursor = AtomicUsize::new(0);
    // Each processed range's first item index and its results.
    let collected: Mutex<Vec<(usize, Vec<R>)>> =
        Mutex::new(Vec::with_capacity(items.len().div_ceil(chunk)));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (cursor, collected, eval) = (&cursor, &collected, &eval);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    let mut out = Vec::new();
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        eval(i, item, &mut out);
                    }
                    local.push((start, out));
                }
                collected
                    .lock()
                    .expect("a worker panicked while holding the result lock")
                    .extend(local);
            });
        }
    });
    let mut parts = collected
        .into_inner()
        .expect("a worker panicked while holding the result lock");
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(parts.iter().map(|(_, part)| part.len()).sum());
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        // 3 workers over 16-item ranges leave a short last range.
        for threads in [1, 2, 3, 7] {
            let out = run_chunked(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn appended_results_concatenate_in_item_order() {
        // Items append 0 to 3 results each, so range boundaries fall
        // between, inside and around empty outputs.
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, x % 4))
            .collect();
        for threads in [1, 2, 7] {
            let out = run_chunked_into(&items, threads, |i, &x, out| {
                assert_eq!(i, x);
                out.extend(std::iter::repeat_n(x, x % 4));
            });
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn empty_and_tiny_work_lists() {
        let none: Vec<u32> = vec![];
        assert!(run_chunked(&none, 4, |_, &x| x).is_empty());
        // Fewer items than one chunk, more threads than items.
        let few = vec![10u32, 20, 30];
        assert_eq!(run_chunked(&few, 64, |_, &x| x + 1), vec![11, 21, 31]);
    }

    #[test]
    fn chunk_size_scales_with_the_work_list() {
        // Small grids keep a fine load-balancing grain.
        assert_eq!(chunk_for(1_620, 8), 16);
        assert_eq!(chunk_for(100, 1), 16);
        // Large grids take proportionally bigger bites...
        assert_eq!(chunk_for(1_000_000, 8), 1_953);
        // ...up to a balance-preserving ceiling.
        assert_eq!(chunk_for(100_000_000, 4), 2_048);
        assert_eq!(chunk_for(0, 0), 16);
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(64, 3), 3);
        assert_eq!(resolve_threads(4, 0), 1);
        assert!(resolve_threads(0, 100) >= 1);
    }

    /// Deterministic busy work proportional to `units`, opaque enough that
    /// the optimizer cannot elide it.
    fn busy(units: u64) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..units * 500 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    }

    /// A pathologically skewed cost distribution — 5% of items carry ~95%
    /// of the work — must cost about the same wall-clock whether the
    /// expensive items are clustered at the tail of the list or spread
    /// uniformly: fine ranges claimed from one cursor spread the tail over
    /// every free worker. The tolerance is generous: the point is "no tail
    /// serialization", not a micro-benchmark.
    #[test]
    fn skewed_cost_distributions_keep_wall_clock_parity_across_orderings() {
        let n = 4096usize;
        let clustered: Vec<u64> = (0..n)
            .map(|i| if i >= n - n / 20 { 120 } else { 1 })
            .collect();
        let spread: Vec<u64> = (0..n).map(|i| if i % 20 == 0 { 120 } else { 1 }).collect();
        let time = |items: &[u64]| {
            let sw = actuary_obs::clock::Stopwatch::start();
            let out = run_chunked(items, 4, |_, &units| busy(units));
            assert_eq!(out.len(), items.len());
            sw.elapsed_seconds()
        };
        // Warm-up evens out thread-pool and frequency-scaling cold starts.
        time(&spread);
        let spread_secs = time(&spread);
        let clustered_secs = time(&clustered);
        assert!(
            clustered_secs <= spread_secs * 4.0 + 0.05,
            "clustered tail serialized: {clustered_secs:.3}s vs {spread_secs:.3}s spread"
        );
        // Both orderings evaluate the same multiset of items and must keep
        // exact output order.
        assert_eq!(
            run_chunked(&clustered, 4, |i, _| i),
            (0..n).collect::<Vec<_>>()
        );
    }
}
