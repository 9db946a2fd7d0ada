//! The one scoped-worker loop: independent work items spread over a few
//! threads, results handed back in input order.
//!
//! Kernel measurement ([`crate::SignatureCache::measure_all`]) runs
//! through [`map_indexed`], and so do the ablations bench's campaign
//! variants and the determinism test's side-by-side campaigns. It lives
//! in this crate because kernel measurement needs it here and every
//! campaign crate already depends on this one.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker per available core.
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Calls `f(0)`, …, `f(count − 1)` on at most `workers` threads, the
/// calling thread included, and returns the results in index order.
///
/// Each thread pulls the next index from a shared counter, so a slow item
/// never holds up the rest, and which thread ran an item never shows in
/// the result. No thread is spawned when `workers` or `count` is below 2.
/// Each helper runs under the caller's trace context (its metrics switch
/// and current recording), so `f` is measured the same on every thread.
/// A panic in `f` is re-raised on the caller.
pub fn map_indexed<R: Send>(count: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    // The counter only hands out indices; results come back through
    // `join`, which orders every worker's writes before the caller reads.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let threads = workers.clamp(1, count.max(1));
    let mut done = if threads < 2 {
        work()
    } else {
        let context = sp2_trace::Context::current();
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads)
                .map(|_| s.spawn(|| context.run(work)))
                .collect();
            let mut done = work();
            for helper in helpers {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for workers in [0, 1, 2, 7] {
            for count in [0, 1, 5, 64] {
                let out = map_indexed(count, workers, |i| i * i);
                let want: Vec<usize> = (0..count).map(|i| i * i).collect();
                assert_eq!(out, want, "{workers} workers, {count} items");
            }
        }
        // Every item waits until the other worker holds one too, so each
        // thread runs one of items 0-1 and then one of items 2-3: the
        // threads' results interleave, and only the merge by index puts
        // them back in order.
        let both_busy = std::sync::Barrier::new(2);
        let out = map_indexed(4, 2, |i| {
            both_busy.wait();
            i
        });
        assert_eq!(out, [0, 1, 2, 3]);
    }
}
