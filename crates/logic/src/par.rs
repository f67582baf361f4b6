//! Deterministic data parallelism for independent kernel jobs.
//!
//! The two-level minimizer is embarrassingly parallel across PLA outputs and
//! resynthesis cones: each job reads shared inputs and produces one
//! independent result. [`par_map`] runs such jobs on scoped OS threads
//! (`std::thread::scope` — no external dependency, keeping the offline
//! build self-contained) and returns results **in input order**, so the
//! parallel path is bit-identical to the serial one. `SYNTHIR_THREADS=1`
//! selects the plain serial map at run time.

/// The number of worker threads [`par_map`] will use at most: the
/// `SYNTHIR_THREADS` environment variable when set (clamped to ≥ 1),
/// otherwise the machine's available parallelism.
pub fn max_threads() -> usize {
    if let Some(n) = std::env::var("SYNTHIR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items`, in parallel when [`max_threads`] and the job
/// count allow it. The output vector is always in input order, making the
/// parallel result identical to the serial one.
///
/// # Examples
///
/// ```
/// let squares = synthir_logic::par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = max_threads().min(items.len());
    if workers > 1 && !IN_PARALLEL.get() {
        return par_map_scoped(items, &f, workers);
    }
    items.iter().map(f).collect()
}

std::thread_local! {
    /// Whether this thread is already a [`par_map`] worker. Nested calls
    /// (a parallel benchmark sweep whose jobs themselves batch-minimize)
    /// run serially instead of oversubscribing the machine with
    /// worker-per-worker thread fan-out.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn par_map_scoped<T, U, F>(items: &[T], f: &F, workers: usize) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Contiguous chunks, one per worker: results concatenate back in input
    // order and each thread touches a disjoint cache-friendly slice.
    let chunk = items.len().div_ceil(workers);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    IN_PARALLEL.set(true);
                    slice.iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("kernel worker thread panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let mapped = par_map(&items, |&x| x * 3);
        assert_eq!(mapped, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_tiny_and_empty_inputs() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_equals_serial_for_nontrivial_work() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ x).collect();
        assert_eq!(par_map(&items, |&x| x.wrapping_mul(x) ^ x), serial);
    }

    #[test]
    fn nested_par_map_is_correct() {
        // Inner calls run serially inside worker threads, but results must
        // still be correct and ordered.
        let outer: Vec<u64> = (0..16).collect();
        let got = par_map(&outer, |&o| {
            let inner: Vec<u64> = (0..8).map(|i| o * 8 + i).collect();
            par_map(&inner, |&x| x * 2)
        });
        for (o, row) in got.iter().enumerate() {
            let expect: Vec<u64> = (0..8).map(|i| (o as u64 * 8 + i) * 2).collect();
            assert_eq!(*row, expect);
        }
    }
}
