//! Wall-clock instrumentation: stopwatches and named phase timers.
//!
//! The paper's Fig. 6b breaks the engine's runtime into four phases
//! (event fetch, ELT lookup, financial terms, layer terms).  [`PhaseTimer`]
//! accumulates named durations so the instrumented engine variant can report
//! exactly that breakdown, and is mergeable so per-thread timers can be
//! combined after a parallel run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Simple wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds as `f64`.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Restarts the stopwatch and returns the time elapsed before the restart.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.start;
        self.start = now;
        elapsed
    }
}

/// Accumulates named durations, e.g. per algorithm phase.
///
/// The accumulated totals are exposed as a map of phase name to duration and
/// as fractional shares of the total (the format of the paper's Fig. 6b).
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    totals: BTreeMap<&'static str, Duration>,
}

impl PhaseTimer {
    /// Creates an empty phase timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a duration to a named phase.
    pub fn add(&mut self, phase: &'static str, d: Duration) {
        *self.totals.entry(phase).or_default() += d;
    }

    /// Times a closure and charges the elapsed time to `phase`.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let out = f();
        self.add(phase, sw.elapsed());
        out
    }

    /// Merges another timer's totals into this one.
    pub fn merge(&mut self, other: &PhaseTimer) {
        for (phase, d) in &other.totals {
            *self.totals.entry(phase).or_default() += *d;
        }
    }

    /// Total accumulated time across all phases.
    pub fn total(&self) -> Duration {
        self.totals.values().sum()
    }

    /// Duration accumulated for one phase (zero if never recorded).
    pub fn get(&self, phase: &str) -> Duration {
        self.totals.get(phase).copied().unwrap_or_default()
    }

    /// All phases and their accumulated durations, sorted by phase name.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.totals.iter().map(|(p, d)| (*p, *d))
    }

    /// Fraction of total time spent in each phase (empty when nothing was
    /// recorded).  Fractions sum to 1.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return vec![];
        }
        self.totals
            .iter()
            .map(|(p, d)| (*p, d.as_secs_f64() / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn stopwatch_measures_time() {
        let mut sw = Stopwatch::start();
        sleep(Duration::from_millis(10));
        assert!(sw.elapsed() >= Duration::from_millis(8));
        assert!(sw.elapsed_secs() > 0.0);
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(8));
        assert!(sw.elapsed() < lap);
    }

    #[test]
    fn phase_timer_accumulates_and_shares() {
        let mut t = PhaseTimer::new();
        t.add("lookup", Duration::from_millis(300));
        t.add("terms", Duration::from_millis(100));
        t.add("lookup", Duration::from_millis(100));
        assert_eq!(t.get("lookup"), Duration::from_millis(400));
        assert_eq!(t.get("terms"), Duration::from_millis(100));
        assert_eq!(t.get("missing"), Duration::ZERO);
        assert_eq!(t.total(), Duration::from_millis(500));
        let shares = t.shares();
        let lookup_share = shares.iter().find(|(p, _)| *p == "lookup").unwrap().1;
        assert!((lookup_share - 0.8).abs() < 1e-9);
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(t.phases().count(), 2);
    }

    #[test]
    fn phase_timer_time_closure() {
        let mut t = PhaseTimer::new();
        let v = t.time("work", || {
            sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(t.get("work") >= Duration::from_millis(4));
    }

    #[test]
    fn phase_timer_empty_shares() {
        let t = PhaseTimer::new();
        assert!(t.shares().is_empty());
        assert_eq!(t.total(), Duration::ZERO);
    }

    #[test]
    fn phase_timer_merge() {
        let mut a = PhaseTimer::new();
        a.add("x", Duration::from_millis(10));
        let mut b = PhaseTimer::new();
        b.add("x", Duration::from_millis(5));
        b.add("y", Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_millis(15));
        assert_eq!(a.get("y"), Duration::from_millis(1));
    }
}
