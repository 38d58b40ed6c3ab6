//! # catrisk-gpusim
//!
//! A simulated many-core GPU and the aggregate-analysis kernels that run on
//! it.
//!
//! The paper evaluates its engine on an NVIDIA Tesla C2075 using CUDA.  That
//! hardware (and a CUDA toolchain) is not assumed here; instead this crate
//! provides a **software device model** with the pieces of the CUDA
//! execution model that the paper's results hinge on:
//!
//! * a [`DeviceSpec`] describing streaming
//!   multiprocessors, warps, clock rate, global-memory latency/bandwidth,
//!   and the per-SM shared/constant memory budgets (a Tesla C2075 preset is
//!   provided);
//! * an [`occupancy`] calculator applying the Fermi limits (threads per SM,
//!   blocks per SM, shared memory per SM) to a launch configuration;
//! * a [`kernel`]/[`executor`] layer that **really executes** kernels one
//!   simulated thread at a time — so the Year Loss Tables produced by the
//!   GPU kernels are checked bit-for-bit against the CPU engines — while
//!   recording every memory access to the global/shared/constant spaces;
//! * a [`timing`] model converting the recorded traffic into simulated
//!   execution time using bandwidth, latency and occupancy-based latency
//!   hiding (plus spill-to-global costs when a kernel's shared-memory
//!   request exceeds the hardware budget);
//! * the two ARE kernels of the paper: [`kernels::BasicAreKernel`]
//!   (all intermediates in global memory) and
//!   [`kernels::ChunkedAreKernel`] (intermediates staged through shared
//!   memory in fixed-size chunks, terms in constant memory).
//!
//! The simulated timings are what the Fig. 4 / Fig. 5 / Fig. 6 benchmark
//! harnesses sweep; they are not wall-clock measurements of the host.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod device;
pub mod executor;
pub mod kernel;
pub mod kernels;
pub mod memory;
pub mod occupancy;
pub mod timing;

pub use device::DeviceSpec;
pub use executor::{Executor, LaunchResult};
pub use kernel::{Kernel, LaunchConfig, ThreadTracker};
pub use kernels::{BasicAreKernel, ChunkedAreKernel};
pub use memory::MemoryCounters;
pub use occupancy::Occupancy;

/// Errors produced when launching kernels on the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// The launch configuration violates a hard device limit.
    InvalidLaunch(String),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::InvalidLaunch(msg) => write!(f, "invalid kernel launch: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Result alias for simulated-GPU operations.
pub type Result<T> = std::result::Result<T, GpuError>;
