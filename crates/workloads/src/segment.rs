//! `segment` — image feature classification, after SD-VBS's segmentation.
//!
//! Rounds of: (1) parallel per-tile labeling (threshold bands + local
//! connected components), (2) a *serial* merge pass that unifies labels
//! across tile boundaries with a union-find and relabels the equivalence
//! classes (sequential in SD-VBS too), and (3) a parallel relabel sweep.
//! The serial merge is the parallelism limit the paper observes: segment
//! tops out near 6-7x on 16 cores.

use std::sync::Arc;

use sprint_archsim::isa::Op;
use sprint_archsim::machine::Machine;
use sprint_archsim::memmap::{AddressSpace, Region};
use sprint_archsim::program::{Inbox, Kernel, KernelStatus, ThreadId};

use crate::data::{check_image_dims, textured_image, GrayImage};
use crate::emit;
use crate::partition::chunk_range;
use crate::suite::{InputSize, Workload};

/// Number of label-refinement rounds.
pub const ROUNDS: usize = 2;
/// Intensity quantization shift: pixels with equal `value >> SHIFT` band
/// together.
pub const BAND_SHIFT: u32 = 6;

/// A disjoint-set (union-find) structure used by the native segmentation.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets containing `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

/// Native segmentation: 4-connected components over intensity bands.
/// Returns the label map and the number of distinct segments.
pub fn segment_native(img: &GrayImage) -> (Vec<u32>, usize) {
    let (w, h) = (img.width, img.height);
    let mut labels: Vec<u32> = (0..(w * h) as u32).collect();
    let mut uf = UnionFind::new(w * h);
    let band = |x: usize, y: usize| img.at(x, y) >> BAND_SHIFT;
    for y in 0..h {
        for x in 0..w {
            if x > 0 && band(x, y) == band(x - 1, y) {
                uf.union((y * w + x) as u32, (y * w + x - 1) as u32);
            }
            if y > 0 && band(x, y) == band(x, y - 1) {
                uf.union((y * w + x) as u32, ((y - 1) * w + x) as u32);
            }
        }
    }
    let mut roots = std::collections::HashMap::new();
    for l in labels.iter_mut() {
        let r = uf.find(*l);
        let next = roots.len() as u32;
        *l = *roots.entry(r).or_insert(next);
    }
    (labels, roots.len())
}

struct SegmentData {
    width: usize,
    height: usize,
    input: Region,
    labels: Region,
}

/// The segmentation workload: dimensions, placement and the input seed.
pub struct SegmentWorkload {
    data: Arc<SegmentData>,
    seed: u64,
}

impl std::fmt::Debug for SegmentWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWorkload")
            .field("width", &self.data.width)
            .field("height", &self.data.height)
            .finish_non_exhaustive()
    }
}

impl SegmentWorkload {
    /// Builds the workload at a standard input size.
    pub fn new(size: InputSize) -> Self {
        let scale = (size.scale() as f64).sqrt();
        let w = (640.0 * scale) as usize;
        let h = (512.0 * scale) as usize;
        Self::with_dims(w, h, 0x0005_E611)
    }

    /// Builds the workload for explicit dimensions.
    pub fn with_dims(width: usize, height: usize, seed: u64) -> Self {
        check_image_dims(width, height);
        let mut mem = AddressSpace::new();
        let input = mem.alloc_bytes((width * height) as u64);
        let labels = mem.alloc_bytes((width * height * 4) as u64);
        Self {
            data: Arc::new(SegmentData {
                width,
                height,
                input,
                labels,
            }),
            seed,
        }
    }

    /// Number of segments the native pass finds, regenerated from the
    /// seeded image on each call.
    pub fn segments(&self) -> usize {
        let d = &self.data;
        segment_native(&textured_image(d.width, d.height, self.seed)).1
    }
}

impl Workload for SegmentWorkload {
    fn name(&self) -> &'static str {
        "segment"
    }

    fn setup(&self, machine: &mut Machine, threads: usize) {
        for t in 0..threads {
            machine.spawn(Box::new(SegmentKernel::new(self.data.clone(), t, threads)));
        }
    }

    fn work_units(&self) -> u64 {
        (self.data.width * self.data.height * ROUNDS) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Label,
    Merge,
    Relabel,
    RoundEnd,
    Finished,
}

struct SegmentKernel {
    data: Arc<SegmentData>,
    tid: usize,
    rows: std::ops::Range<usize>,
    round: usize,
    phase: Phase,
    cursor: usize,
}

impl SegmentKernel {
    fn new(data: Arc<SegmentData>, tid: usize, threads: usize) -> Self {
        let rows = chunk_range(data.height, threads, tid);
        Self {
            cursor: rows.start,
            rows,
            data,
            tid,
            round: 0,
            phase: Phase::Label,
        }
    }
}

impl Kernel for SegmentKernel {
    fn step(&mut self, _tid: ThreadId, _inbox: &mut Inbox, out: &mut Vec<Op>) -> KernelStatus {
        let d = &self.data;
        let w = d.width as u64;
        match self.phase {
            Phase::Label => {
                // Parallel: threshold + local components over own rows.
                for _ in 0..4 {
                    if self.cursor >= self.rows.end {
                        break;
                    }
                    let y = self.cursor as u64;
                    emit::load_span(out, d.input, y * w, w);
                    emit::load_span(out, d.labels, y * w * 4, w * 4);
                    emit::store_span(out, d.labels, y * w * 4, w * 4);
                    emit::element_mix(out, w, 0, 6, 2);
                    self.cursor += 1;
                }
                if self.cursor >= self.rows.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::Merge;
                    self.cursor = 0;
                }
                KernelStatus::Running
            }
            Phase::Merge => {
                if self.tid != 0 {
                    out.push(Op::Barrier);
                    self.phase = Phase::Relabel;
                    self.cursor = self.rows.start;
                    return KernelStatus::Running;
                }
                // Serial: union-find across tile-boundary rows plus the
                // region-adjacency bookkeeping — touches every fourth row
                // of the label map (boundary rows and the equivalence
                // table), the sequential section SD-VBS also has.
                for _ in 0..4 {
                    if self.cursor >= d.height {
                        break;
                    }
                    let y = self.cursor as u64;
                    emit::load_span(out, d.labels, y * w * 4, w * 4);
                    emit::element_mix(out, w, 0, 2, 1);
                    self.cursor += 4;
                }
                if self.cursor >= d.height {
                    out.push(Op::Barrier);
                    self.phase = Phase::Relabel;
                    self.cursor = self.rows.start;
                }
                KernelStatus::Running
            }
            Phase::Relabel => {
                // Parallel: rewrite labels through the equivalence map.
                for _ in 0..4 {
                    if self.cursor >= self.rows.end {
                        break;
                    }
                    let y = self.cursor as u64;
                    emit::load_span(out, d.labels, y * w * 4, w * 4);
                    emit::store_span(out, d.labels, y * w * 4, w * 4);
                    emit::element_mix(out, w, 0, 3, 1);
                    self.cursor += 1;
                }
                if self.cursor >= self.rows.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::RoundEnd;
                }
                KernelStatus::Running
            }
            Phase::RoundEnd => {
                self.round += 1;
                if self.round >= ROUNDS {
                    self.phase = Phase::Finished;
                    return KernelStatus::Done;
                }
                self.phase = Phase::Label;
                self.cursor = self.rows.start;
                KernelStatus::Running
            }
            Phase::Finished => KernelStatus::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_archsim::config::MachineConfig;

    #[test]
    fn union_find_merges_transitively() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(5));
    }

    #[test]
    fn uniform_image_is_one_segment() {
        let img = GrayImage {
            width: 32,
            height: 32,
            pixels: vec![100; 32 * 32],
        };
        let (_labels, n) = segment_native(&img);
        assert_eq!(n, 1);
    }

    #[test]
    fn two_halves_are_two_segments() {
        let mut img = GrayImage {
            width: 32,
            height: 32,
            pixels: vec![10; 32 * 32],
        };
        for y in 16..32 {
            for x in 0..32 {
                img.pixels[y * 32 + x] = 200;
            }
        }
        let (labels, n) = segment_native(&img);
        assert_eq!(n, 2);
        assert_ne!(labels[0], labels[20 * 32]);
    }

    #[test]
    fn textured_image_has_many_segments() {
        let segments = SegmentWorkload::with_dims(128, 96, 3).segments();
        assert!(segments > 10, "textured scene: {segments} segments");
    }

    #[test]
    fn speedup_is_parallelism_limited() {
        let elapsed = |threads: usize| -> u64 {
            let w = SegmentWorkload::with_dims(256, 192, 3);
            let mut m = Machine::new(MachineConfig::hpca().with_cores(threads));
            w.setup(&mut m, threads);
            while !m.all_done() {
                m.run_window(1_000_000);
            }
            m.time_ps()
        };
        let t1 = elapsed(1);
        let t16 = elapsed(16);
        let speedup = t1 as f64 / t16 as f64;
        assert!(
            (3.5..10.0).contains(&speedup),
            "segment should cap near the paper's ~6.6x: {speedup:.2}"
        );
    }
}
