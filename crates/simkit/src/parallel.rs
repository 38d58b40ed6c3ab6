//! Parallel execution helpers.
//!
//! The aggregate risk engine parallelises over trials ("a single thread is
//! employed per trial" in the paper).  [`build_pool`] creates a rayon thread
//! pool of an explicit size, which is how the Fig. 3a core-count sweep is
//! driven.

use rayon::ThreadPool;

/// Builds a rayon thread pool with exactly `threads` worker threads.
///
/// A `threads` value of 0 lets rayon pick the default (number of logical
/// CPUs).
pub fn build_pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon thread pool")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_requested_threads() {
        let pool = build_pool(3);
        assert_eq!(pool.current_num_threads(), 3);
    }
}
