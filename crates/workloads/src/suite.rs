//! The Table 1 workload suite: construction, sizing and metadata.
//!
//! A suite input is a pure function of its `(kind, size)`: every seed is
//! fixed. [`build_workload`] therefore builds each of the 24 inputs at most
//! once per process and hands every caller, on any thread, the same
//! immutable instance. The per-kernel `with_dims` / `with_points`
//! constructors build a fresh, unshared copy.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use sprint_archsim::machine::Machine;

use crate::disparity::DisparityWorkload;
use crate::feature::FeatureWorkload;
use crate::kmeans::KmeansWorkload;
use crate::segment::SegmentWorkload;
use crate::sobel::SobelWorkload;
use crate::texture::TextureWorkload;

/// A parallel workload that can be instantiated on a [`Machine`].
///
/// One instance may be set up on many machines, from many threads at once
/// (see [`build_workload`]).
pub trait Workload: Send + Sync {
    /// Short kernel name as in Table 1 (e.g. `"sobel"`).
    fn name(&self) -> &'static str;

    /// Spawns `threads` kernel threads (and any task queues) on `machine`.
    /// Only reads `self`: all state a run changes lives in the kernels it
    /// spawns.
    fn setup(&self, machine: &mut Machine, threads: usize);

    /// Approximate serial work in abstract units (for reporting only).
    fn work_units(&self) -> u64;
}

/// The six kernels of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Edge detection filter; parallelized OpenMP-style over rows.
    Sobel,
    /// SURF-style feature extraction (integral image + Hessian responses +
    /// descriptors), after MEVBench's `feature`.
    Feature,
    /// Partition-based clustering (Lloyd's k-means); OpenMP-style.
    Kmeans,
    /// Stereo image disparity detection (block-matching SAD), after SD-VBS.
    Disparity,
    /// Image composition (multi-layer blend with a serial placement
    /// phase), after SD-VBS's texture synthesis.
    Texture,
    /// Image feature classification (tile labeling with a serial merge),
    /// after SD-VBS's image segmentation.
    Segment,
}

impl WorkloadKind {
    /// All kernels in Table 1 order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Sobel,
        WorkloadKind::Feature,
        WorkloadKind::Kmeans,
        WorkloadKind::Disparity,
        WorkloadKind::Texture,
        WorkloadKind::Segment,
    ];

    /// Kernel name as in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Sobel => "sobel",
            WorkloadKind::Feature => "feature",
            WorkloadKind::Kmeans => "kmeans",
            WorkloadKind::Disparity => "disparity",
            WorkloadKind::Texture => "texture",
            WorkloadKind::Segment => "segment",
        }
    }

    /// Table 1 description.
    pub fn description(&self) -> &'static str {
        match self {
            WorkloadKind::Sobel => "Edge detection filter; parallelized with OpenMP",
            WorkloadKind::Feature => "Feature extraction (SURF-style), after MEVBench",
            WorkloadKind::Kmeans => "Partition based clustering; parallelized with OpenMP",
            WorkloadKind::Disparity => "Stereo image disparity detection, after SD-VBS",
            WorkloadKind::Texture => "Image composition, after SD-VBS",
            WorkloadKind::Segment => "Image feature classification, after SD-VBS",
        }
    }
}

/// Input size classes (Figure 9's A-D bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InputSize {
    /// Smallest input.
    A,
    /// Small input.
    B,
    /// Reference input (used for Figure 7).
    C,
    /// Largest input.
    D,
}

impl InputSize {
    /// All sizes in ascending order.
    pub const ALL: [InputSize; 4] = [InputSize::A, InputSize::B, InputSize::C, InputSize::D];

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            InputSize::A => "A",
            InputSize::B => "B",
            InputSize::C => "C",
            InputSize::D => "D",
        }
    }

    /// Linear scale factor relative to A (1, 2, 4, 8).
    pub fn scale(&self) -> usize {
        match self {
            InputSize::A => 1,
            InputSize::B => 2,
            InputSize::C => 4,
            InputSize::D => 8,
        }
    }
}

/// One slot per `(kind, size)` pair: 6 kernels x 4 sizes.
const SUITE_SLOTS: usize = WorkloadKind::ALL.len() * InputSize::ALL.len();

/// The suite's inputs, indexed by `kind * InputSize::ALL.len() + size` and
/// built on first use.
static SUITE: [OnceLock<Arc<dyn Workload>>; SUITE_SLOTS] = [const { OnceLock::new() }; SUITE_SLOTS];

/// The workload of the given kind and input size with the default
/// deterministic seed.
///
/// The first call for a `(kind, size)` builds it; every later call, on any
/// thread, returns the same shared instance. The table holds at most one
/// entry per suite input, however long the process runs.
pub fn build_workload(kind: WorkloadKind, size: InputSize) -> Arc<dyn Workload> {
    let slot = &SUITE[kind as usize * InputSize::ALL.len() + size as usize];
    Arc::clone(slot.get_or_init(|| -> Arc<dyn Workload> {
        match kind {
            WorkloadKind::Sobel => Arc::new(SobelWorkload::new(size)),
            WorkloadKind::Feature => Arc::new(FeatureWorkload::new(size)),
            WorkloadKind::Kmeans => Arc::new(KmeansWorkload::new(size)),
            WorkloadKind::Disparity => Arc::new(DisparityWorkload::new(size)),
            WorkloadKind::Texture => Arc::new(TextureWorkload::new(size)),
            WorkloadKind::Segment => Arc::new(SegmentWorkload::new(size)),
        }
    }))
}

/// Builds a machine with `cores` cores and `threads` threads of the given
/// suite workload already spawned — the common first line of every
/// coupled experiment, and the natural argument to
/// `ScenarioBuilder::load` in `sprint_core`. The input is the shared
/// instance from [`build_workload`].
pub fn loaded_machine(
    kind: WorkloadKind,
    size: InputSize,
    config: sprint_archsim::config::MachineConfig,
    threads: usize,
) -> Machine {
    let workload = build_workload(kind, size);
    let mut machine = Machine::new(config);
    workload.setup(&mut machine, threads);
    machine
}

/// A workload loader closure for `ScenarioBuilder::load` in
/// `sprint_core`: spawns `threads` threads of the given suite kernel on
/// whatever machine the builder constructs, over the shared instance from
/// [`build_workload`].
pub fn suite_loader(
    kind: WorkloadKind,
    size: InputSize,
    threads: usize,
) -> impl FnOnce(&mut Machine) {
    move |machine| build_workload(kind, size).setup(machine, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn sizes_scale_geometrically() {
        assert_eq!(InputSize::ALL.map(|s| s.scale()), [1, 2, 4, 8]);
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in WorkloadKind::ALL {
            let w = build_workload(kind, InputSize::A);
            assert_eq!(w.name(), kind.name());
            assert!(w.work_units() > 0);
        }
    }

    #[test]
    fn size_a_reference_results_are_pinned() {
        // Reference results are recomputed from the seeded inputs on each
        // call; they must match the native passes' pinned values.
        assert_eq!(SobelWorkload::new(InputSize::A).checksum(), 11_890_698);
        let map = DisparityWorkload::new(InputSize::A).map();
        assert_eq!(map.len(), 800 * 624);
        assert_eq!(map.iter().map(|&d| u64::from(d)).sum::<u64>(), 1_843_899);
        assert_eq!(TextureWorkload::new(InputSize::A).checksum(), 9_722_072);
        assert_eq!(SegmentWorkload::new(InputSize::A).segments(), 4_494);
    }

    #[test]
    fn loaded_machine_and_loader_agree() {
        use sprint_archsim::config::MachineConfig;
        let a = loaded_machine(
            WorkloadKind::Sobel,
            InputSize::A,
            MachineConfig::hpca().with_cores(4),
            4,
        );
        let mut b = Machine::new(MachineConfig::hpca().with_cores(4));
        suite_loader(WorkloadKind::Sobel, InputSize::A, 4)(&mut b);
        assert_eq!(a.live_threads(), b.live_threads());
        assert!(a.live_threads() > 0);
    }
}
