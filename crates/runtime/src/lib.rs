//! Parallel execution substrate for recurrence-chain schedules.
//!
//! This crate stands in for the paper's Fortran + OpenMP + 4-CPU Itanium
//! testbed:
//!
//! * [`mod@array`] — the array store generated loops compute on (dense
//!   row-major slabs over per-array boxes, or a map of written elements
//!   when a box is too sparse for a slab; negative subscripts allowed,
//!   deterministic initial values, shared writes through atomics),
//! * [`kernel`] — statement kernels; [`RefKernel`] derives an
//!   order-sensitive computation directly from a program's array
//!   references so that schedule correctness is observable, and reports
//!   the write footprint the executor sizes its store from,
//! * [`executor`] — the sequential reference executor, the multi-threaded
//!   [`ParallelExecutor`] with per-phase barriers, per-chain work batching,
//!   a race-detecting buffered path and a trusted direct-write path, and
//!   schedule verification (parallel result == sequential result),
//! * [`cost`] — the calibrated analytic cost model that turns schedules
//!   into the speedup curves of Figure 3 even on machines with too few
//!   cores to show real scaling (measured wall-clock speedups come from
//!   [`ParallelExecutor`] via the benchmark harness); it also drives the
//!   executor's sequential fallback for schedules too small to amortise
//!   pool overhead,
//! * [`pool`] — the generalised `scope`/`par_map` thread-pool facility
//!   (re-exported [`rcp_pool`]) for non-schedule work: sharded dependence
//!   analysis, sharded trace construction, concurrent benchmark
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rcp_pool as pool;

pub mod array;
pub mod cost;
pub mod executor;
pub mod kernel;

pub use array::{Array, ArrayStore, BufferedView, Footprint, StoreView};
pub use cost::{makespan, CostModel};
pub use executor::{
    execute_schedule, execute_sequential, verify_schedule, ExecutionResult, ParallelExecutor,
    Verification,
};
pub use kernel::{FnKernel, Kernel, RefKernel};
