//! `feature` — SURF-style feature extraction, after MEVBench.
//!
//! Four phases: (1) integral-image row prefix sums, (2) column prefix
//! sums (strided traffic), (3) Hessian box-filter responses at two scales
//! with local-maximum detection (the data-dependent feature set), and
//! (4) descriptor extraction over the detected features, distributed
//! dynamically through a shared task queue (task stealing à la the paper's
//! runtime). The kernel is memory-intensive — integral-image traffic is
//! 4 bytes per pixel per pass — which is why the paper finds `feature`
//! limited by memory bandwidth at high core counts.

use std::sync::Arc;

use sprint_archsim::isa::{Op, OpClass};
use sprint_archsim::machine::Machine;
use sprint_archsim::memmap::{AddressSpace, Region};
use sprint_archsim::program::{Inbox, Kernel, KernelStatus, ThreadId};

use crate::data::{textured_image, GrayImage};
use crate::emit;
use crate::partition::chunk_range;
use crate::suite::{InputSize, Workload};

/// Maximum features carried into the descriptor phase.
pub const MAX_FEATURES: usize = 512;
/// Box-filter scales (in pixels) for the Hessian responses.
pub const SCALES: [usize; 2] = [3, 5];

/// A detected interest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeaturePoint {
    /// Pixel x.
    pub x: u32,
    /// Pixel y.
    pub y: u32,
    /// Hessian response.
    pub response: f32,
}

/// Computes the integral image (inclusive 2D prefix sums).
pub fn integral_image(img: &GrayImage) -> Vec<u32> {
    let (w, h) = (img.width, img.height);
    let mut integral = vec![0u32; w * h];
    for y in 0..h {
        let mut row_sum = 0u32;
        for x in 0..w {
            row_sum += u32::from(img.at(x, y));
            integral[y * w + x] = row_sum + if y > 0 { integral[(y - 1) * w + x] } else { 0 };
        }
    }
    integral
}

#[inline]
fn box_sum(integral: &[u32], w: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
    // Inclusive box [x0..=x1] x [y0..=y1]; caller guarantees margins >= 1.
    let a = i64::from(integral[(y0 - 1) * w + (x0 - 1)]);
    let b = i64::from(integral[(y0 - 1) * w + x1]);
    let c = i64::from(integral[y1 * w + (x0 - 1)]);
    let d = i64::from(integral[y1 * w + x1]);
    d - b - c + a
}

/// Hessian determinant response at `(x, y)` and box scale `s`.
pub fn hessian_response(integral: &[u32], w: usize, x: usize, y: usize, s: usize) -> f32 {
    let sum = |x0: usize, y0: usize, x1: usize, y1: usize| box_sum(integral, w, x0, y0, x1, y1);
    // Dxx: [left | -2*mid | right] boxes of width s, height 2s+1.
    let dxx = sum(x - s, y - s, x - 1, y + s) - 2 * sum(x, y - s, x, y + s) * s as i64
        + sum(x + 1, y - s, x + s, y + s);
    let dyy = sum(x - s, y - s, x + s, y - 1) - 2 * sum(x - s, y, x + s, y) * s as i64
        + sum(x - s, y + 1, x + s, y + s);
    let dxy = sum(x - s, y - s, x - 1, y - 1) + sum(x + 1, y + 1, x + s, y + s)
        - sum(x + 1, y - s, x + s, y - 1)
        - sum(x - s, y + 1, x - 1, y + s);
    let norm = 1.0 / (s * s) as f32;
    let (dxx, dyy, dxy) = (dxx as f32 * norm, dyy as f32 * norm, dxy as f32 * norm);
    dxx * dyy - 0.81 * dxy * dxy
}

/// Detects interest points: thresholded local maxima of the multi-scale
/// Hessian response.
pub fn detect_features(img: &GrayImage, threshold: f32) -> Vec<FeaturePoint> {
    let (w, h) = (img.width, img.height);
    let integral = integral_image(img);
    let margin = SCALES[SCALES.len() - 1] + 2;
    let mut features = Vec::new();
    for y in margin..h - margin {
        for x in margin..w - margin {
            let r: f32 = SCALES
                .iter()
                .map(|&s| hessian_response(&integral, w, x, y, s))
                .sum();
            if r > threshold {
                // 3x3 local maximum at the base scale.
                let mut is_max = true;
                'nb: for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nr: f32 = SCALES
                            .iter()
                            .map(|&s| {
                                hessian_response(
                                    &integral,
                                    w,
                                    (x as i32 + dx) as usize,
                                    (y as i32 + dy) as usize,
                                    s,
                                )
                            })
                            .sum();
                        if nr > r {
                            is_max = false;
                            break 'nb;
                        }
                    }
                }
                if is_max {
                    features.push(FeaturePoint {
                        x: x as u32,
                        y: y as u32,
                        response: r,
                    });
                }
            }
        }
    }
    features.sort_by(|a, b| b.response.total_cmp(&a.response));
    features.truncate(MAX_FEATURES);
    features
}

struct FeatureData {
    width: usize,
    height: usize,
    features: Vec<FeaturePoint>,
    input: Region,
    integral: Region,
    responses: Region,
    descriptors: Region,
}

/// The feature-extraction workload.
pub struct FeatureWorkload {
    data: Arc<FeatureData>,
}

impl std::fmt::Debug for FeatureWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureWorkload")
            .field("width", &self.data.width)
            .field("height", &self.data.height)
            .field("features", &self.data.features.len())
            .finish_non_exhaustive()
    }
}

impl FeatureWorkload {
    /// Builds the workload at a standard size (C ≈ an HD frame, matching
    /// the paper's "largest input size (HD image, bar C)" for `feature`).
    pub fn new(size: InputSize) -> Self {
        // Sized so the C-class integral image (~5 MB of u32) exceeds the
        // 4 MB LLC: every pass streams from memory, reproducing the
        // paper's finding that `feature` is bandwidth-limited.
        let scale = (size.scale() as f64).sqrt();
        let w = (640.0 * scale) as usize;
        let h = (512.0 * scale) as usize;
        Self::with_dims(w, h, 0xFEA7)
    }

    /// Builds the workload for explicit dimensions.
    pub fn with_dims(width: usize, height: usize, seed: u64) -> Self {
        let img = textured_image(width, height, seed);
        let features = detect_features(&img, 2_000.0);
        let mut mem = AddressSpace::new();
        let input = mem.alloc_bytes((width * height) as u64);
        let integral = mem.alloc_bytes((width * height * 4) as u64);
        let responses = mem.alloc_bytes((width * height * 4) as u64);
        let descriptors = mem.alloc_bytes((MAX_FEATURES * 64 * 4) as u64);
        Self {
            data: Arc::new(FeatureData {
                width,
                height,
                features,
                input,
                integral,
                responses,
                descriptors,
            }),
        }
    }

    /// The natively detected features.
    pub fn features(&self) -> &[FeaturePoint] {
        &self.data.features
    }
}

impl Workload for FeatureWorkload {
    fn name(&self) -> &'static str {
        "feature"
    }

    fn setup(&self, machine: &mut Machine, threads: usize) {
        let queue = machine.create_task_queue(self.data.features.len() as u32);
        for t in 0..threads {
            machine.spawn(Box::new(FeatureKernel::new(
                self.data.clone(),
                t,
                threads,
                queue,
            )));
        }
    }

    fn work_units(&self) -> u64 {
        (self.data.width * self.data.height) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    RowPrefix,
    ColPrefix,
    Hessian,
    Descriptors,
    AwaitTask,
    Finished,
}

struct FeatureKernel {
    data: Arc<FeatureData>,
    queue: u32,
    phase: Phase,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    cursor: usize,
}

impl FeatureKernel {
    fn new(data: Arc<FeatureData>, tid: usize, threads: usize, queue: u32) -> Self {
        let rows = chunk_range(data.height, threads, tid);
        let cols = chunk_range(data.width, threads, tid);
        Self {
            cursor: rows.start,
            rows,
            cols,
            data,
            queue,
            phase: Phase::RowPrefix,
        }
    }
}

impl Kernel for FeatureKernel {
    fn step(&mut self, _tid: ThreadId, inbox: &mut Inbox, out: &mut Vec<Op>) -> KernelStatus {
        let d = &self.data;
        let (w, _h) = (d.width, d.height);
        match self.phase {
            Phase::RowPrefix => {
                // One image row per step-chunk: read u8 row, write u32 row.
                for _ in 0..4 {
                    if self.cursor >= self.rows.end {
                        break;
                    }
                    let y = self.cursor as u64;
                    emit::load_span(out, d.input, y * w as u64, w as u64);
                    emit::store_span(out, d.integral, y * (w as u64) * 4, (w as u64) * 4);
                    emit::compute(out, OpClass::IntAlu, 2 * w as u64);
                    self.cursor += 1;
                }
                if self.cursor >= self.rows.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::ColPrefix;
                    self.cursor = self.cols.start;
                }
                KernelStatus::Running
            }
            Phase::ColPrefix => {
                // Column blocks of 16: strided down the integral image —
                // one line per row touched, the bandwidth-hungry phase.
                let x0 = self.cursor;
                if x0 >= self.cols.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::Hessian;
                    self.cursor = self.rows.start;
                    return KernelStatus::Running;
                }
                let x1 = (x0 + 16).min(self.cols.end);
                for y in 0..d.height as u64 {
                    let off = (y * w as u64 + x0 as u64) * 4;
                    emit::load_span(out, d.integral, off, ((x1 - x0) * 4) as u64);
                    emit::store_span(out, d.integral, off, ((x1 - x0) * 4) as u64);
                }
                emit::compute(out, OpClass::IntAlu, (d.height * (x1 - x0)) as u64);
                self.cursor = x1;
                KernelStatus::Running
            }
            Phase::Hessian => {
                if self.cursor >= self.rows.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::Descriptors;
                    return KernelStatus::Running;
                }
                let y = self.cursor as u64;
                let margin = SCALES[SCALES.len() - 1] + 2;
                if (self.cursor >= margin) && (self.cursor < d.height - margin) {
                    // Box-filter corner rows at y±s for both scales, plus
                    // the response row store.
                    for x0 in (0..w).step_by(16) {
                        let len = 16.min(w - x0) as u64;
                        for &s in &SCALES {
                            for dy in [-(s as i64), 0, s as i64] {
                                let row = (y as i64 + dy) as u64;
                                emit::load_span(
                                    out,
                                    d.integral,
                                    (row * w as u64 + x0 as u64) * 4,
                                    len * 4,
                                );
                            }
                        }
                        emit::store_span(out, d.responses, (y * w as u64 + x0 as u64) * 4, len * 4);
                        emit::element_mix(out, len, 22 * SCALES.len() as u64, 4, 2);
                    }
                }
                self.cursor += 1;
                KernelStatus::Running
            }
            Phase::Descriptors => {
                out.push(Op::FetchTask { queue: self.queue });
                self.phase = Phase::AwaitTask;
                KernelStatus::Running
            }
            Phase::AwaitTask => {
                let reply = inbox.task.expect("descriptor phase awaits a task reply");
                match reply.task {
                    Some(idx) => {
                        let f = d.features[idx as usize % d.features.len()];
                        // 4x4 subregions x 16 samples around the point:
                        // scattered rows of the integral image.
                        for dy in -8i64..8 {
                            let row = (i64::from(f.y) + dy).clamp(0, d.height as i64 - 1) as u64;
                            let x0 = (i64::from(f.x) - 8).max(0) as u64;
                            emit::load_span(out, d.integral, (row * w as u64 + x0) * 4, 16 * 4);
                        }
                        emit::compute(out, OpClass::FpAlu, 400);
                        emit::store_span(
                            out,
                            d.descriptors,
                            u64::from(idx) % ((MAX_FEATURES as u64 - 1) * 256),
                            256,
                        );
                        out.push(Op::FetchTask { queue: self.queue });
                        KernelStatus::Running
                    }
                    None => {
                        out.push(Op::Barrier);
                        self.phase = Phase::Finished;
                        KernelStatus::Done
                    }
                }
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
    fn integral_image_matches_brute_force() {
        let img = textured_image(24, 16, 5);
        let integral = integral_image(&img);
        for (x, y) in [(0, 0), (5, 3), (23, 15)] {
            let mut expected = 0u32;
            for yy in 0..=y {
                for xx in 0..=x {
                    expected += u32::from(img.at(xx, yy));
                }
            }
            assert_eq!(integral[y * 24 + x], expected, "at ({x},{y})");
        }
    }

    #[test]
    fn features_found_on_textured_image() {
        let w = FeatureWorkload::with_dims(160, 120, 3);
        assert!(
            !w.features().is_empty(),
            "textured image must yield interest points"
        );
        assert!(w.features().len() <= MAX_FEATURES);
        // Sorted by response, strongest first.
        for pair in w.features().windows(2) {
            assert!(pair[0].response >= pair[1].response);
        }
    }

    #[test]
    fn flat_image_yields_no_features() {
        let img = GrayImage {
            width: 64,
            height: 64,
            pixels: vec![128; 64 * 64],
        };
        assert!(detect_features(&img, 2_000.0).is_empty());
    }

    #[test]
    fn workload_runs_all_phases() {
        let w = FeatureWorkload::with_dims(128, 96, 3);
        let nfeat = w.features().len() as u64;
        assert!(nfeat > 0);
        let mut m = Machine::new(MachineConfig::hpca().with_cores(4));
        w.setup(&mut m, 4);
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // Three phase barriers plus the final one.
        assert_eq!(m.stats().barrier_episodes, 4);
        assert!(m.stats().llc_misses > 0, "integral passes must miss");
    }
}
