//! The evaluation workload suite of *Computational Sprinting* (Table 1).
//!
//! Six vision/image-analysis kernels "inspired by camera-based search",
//! re-implemented from their algorithm descriptions (SD-VBS / MEVBench
//! lineage) as *trace-emitting programs* for [`sprint_archsim`]: each
//! kernel computes natively on deterministic synthetic inputs (so control
//! flow, convergence and feature counts are data-dependent) while emitting
//! the corresponding instruction/address stream at cache-line granularity.
//!
//! | Kernel | Parallel structure | Scaling behaviour (paper) |
//! |---|---|---|
//! | [`sobel`] | rows, OpenMP-style | near-linear to 64 cores |
//! | [`feature`] | phases + task queue | memory-bandwidth limited |
//! | [`kmeans`] | points + reduction | near-linear to 64 cores |
//! | [`disparity`] | rows x disparities | memory-bandwidth limited |
//! | [`texture`] | rows + serial seam pass | parallelism limited |
//! | [`segment`] | tiles + serial merge | parallelism limited (~6.6x) |
//!
//! Every suite input is a pure function of its kernel and [`InputSize`]:
//! [`build_workload`] builds each one once per process and shares that
//! immutable instance with every caller and thread, so a burst's load
//! costs only its kernels' spawn. A workload keeps only what its kernels
//! read; reference results (`SobelWorkload::checksum`,
//! `DisparityWorkload::map`, ...) are computed when asked for. The
//! per-kernel `with_dims` constructors build a fresh copy at any size.
//!
//! # Quick start
//!
//! ```
//! use sprint_archsim::{Machine, MachineConfig};
//! use sprint_workloads::suite::{build_workload, InputSize, WorkloadKind};
//!
//! let workload = build_workload(WorkloadKind::Sobel, InputSize::A);
//! let mut machine = Machine::new(MachineConfig::hpca().with_cores(4));
//! workload.setup(&mut machine, 4);
//! while !machine.all_done() {
//!     machine.run_window(1_000_000);
//! }
//! println!("done in {:.3} ms", machine.time_s() * 1e3);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod disparity;
pub mod emit;
pub mod feature;
pub mod kmeans;
pub mod partition;
pub mod segment;
pub mod sobel;
pub mod suite;
pub mod texture;
pub mod traffic;

pub use suite::{build_workload, loaded_machine, suite_loader, InputSize, Workload, WorkloadKind};
