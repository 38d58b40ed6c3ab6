//! Memory traffic counters.

use serde::{Deserialize, Serialize};

/// Counts of memory operations recorded during a kernel execution.
///
/// Counters distinguish reads from writes for global memory (writes are not
/// latency-bound but still consume bandwidth), and count accesses plus bytes
/// for every space.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryCounters {
    /// Number of global-memory read accesses.
    pub global_reads: u64,
    /// Number of global-memory write accesses.
    pub global_writes: u64,
    /// Bytes read from global memory.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Number of shared-memory accesses (reads and writes).
    pub shared_accesses: u64,
    /// Bytes moved through shared memory.
    pub shared_bytes: u64,
    /// Number of constant-memory accesses.
    pub constant_accesses: u64,
    /// Shared-memory accesses that had to spill to global memory because the
    /// requested shared allocation exceeded the hardware budget.
    pub spilled_accesses: u64,
    /// Arithmetic operations executed.
    pub compute_ops: u64,
}

impl MemoryCounters {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a global read of `bytes` bytes.
    #[inline]
    pub fn global_read(&mut self, bytes: u64) {
        self.global_reads += 1;
        self.global_read_bytes += bytes;
    }

    /// Records a global write of `bytes` bytes.
    #[inline]
    pub fn global_write(&mut self, bytes: u64) {
        self.global_writes += 1;
        self.global_write_bytes += bytes;
    }

    /// Records a shared-memory access of `bytes` bytes.
    #[inline]
    pub fn shared_access(&mut self, bytes: u64) {
        self.shared_accesses += 1;
        self.shared_bytes += bytes;
    }

    /// Records a constant-memory access.
    #[inline]
    pub fn constant_access(&mut self) {
        self.constant_accesses += 1;
    }

    /// Records `ops` arithmetic operations.
    #[inline]
    pub fn compute(&mut self, ops: u64) {
        self.compute_ops += ops;
    }

    /// Total global accesses (reads + writes).
    pub fn global_accesses(&self) -> u64 {
        self.global_reads + self.global_writes
    }

    /// Total bytes moved through global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &MemoryCounters) {
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.shared_accesses += other.shared_accesses;
        self.shared_bytes += other.shared_bytes;
        self.constant_accesses += other.constant_accesses;
        self.spilled_accesses += other.spilled_accesses;
        self.compute_ops += other.compute_ops;
    }

    /// Converts a fraction of the shared-memory traffic into spilled
    /// (global) traffic; used when a launch requests more shared memory than
    /// the device provides.
    pub fn spill_shared(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let spilled = (self.shared_accesses as f64 * fraction).round() as u64;
        let spilled_bytes = (self.shared_bytes as f64 * fraction).round() as u64;
        self.spilled_accesses += spilled;
        self.shared_accesses -= spilled.min(self.shared_accesses);
        self.shared_bytes -= spilled_bytes.min(self.shared_bytes);
        // Spilled accesses hit global memory: half reads, half writes is a
        // reasonable stand-in for load/store pairs on the staging buffers.
        self.global_reads += spilled / 2;
        self.global_writes += spilled - spilled / 2;
        self.global_read_bytes += spilled_bytes / 2;
        self.global_write_bytes += spilled_bytes - spilled_bytes / 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = MemoryCounters::new();
        c.global_read(8);
        c.global_read(8);
        c.global_write(4);
        c.shared_access(8);
        c.constant_access();
        c.compute(10);
        assert_eq!(c.global_reads, 2);
        assert_eq!(c.global_writes, 1);
        assert_eq!(c.global_accesses(), 3);
        assert_eq!(c.global_bytes(), 20);
        assert_eq!(c.shared_accesses, 1);
        assert_eq!(c.constant_accesses, 1);
        assert_eq!(c.compute_ops, 10);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MemoryCounters::new();
        a.global_read(8);
        a.shared_access(16);
        let mut b = MemoryCounters::new();
        b.global_write(8);
        b.compute(5);
        b.constant_access();
        a.merge(&b);
        assert_eq!(a.global_accesses(), 2);
        assert_eq!(a.global_bytes(), 16);
        assert_eq!(a.shared_bytes, 16);
        assert_eq!(a.compute_ops, 5);
        assert_eq!(a.constant_accesses, 1);
    }

    #[test]
    fn spill_moves_traffic_to_global() {
        let mut c = MemoryCounters::new();
        for _ in 0..100 {
            c.shared_access(8);
        }
        c.spill_shared(0.25);
        assert_eq!(c.spilled_accesses, 25);
        assert_eq!(c.shared_accesses, 75);
        assert_eq!(c.global_accesses(), 25);
        assert_eq!(c.global_bytes(), 200);
        // Full spill.
        let mut c2 = MemoryCounters::new();
        for _ in 0..10 {
            c2.shared_access(8);
        }
        c2.spill_shared(2.0);
        assert_eq!(c2.shared_accesses, 0);
        assert_eq!(c2.spilled_accesses, 10);
        // No spill.
        let mut c3 = MemoryCounters::new();
        c3.shared_access(8);
        c3.spill_shared(0.0);
        assert_eq!(c3.spilled_accesses, 0);
        assert_eq!(c3.shared_accesses, 1);
    }
}
