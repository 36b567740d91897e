//! `disparity` — stereo block-matching disparity, after SD-VBS.
//!
//! For each candidate disparity the kernel streams the left image and the
//! shifted right image, computes a windowed sum-of-absolute-differences
//! (SAD), and keeps the per-pixel winner. The images are stored as 32-bit
//! integers (as SD-VBS does) and every disparity pass re-streams them, so
//! the kernel is dominated by memory traffic — the paper finds `disparity`
//! limited by memory bandwidth and gaining from doubled channels.

use std::sync::Arc;

use sprint_archsim::isa::Op;
use sprint_archsim::machine::Machine;
use sprint_archsim::memmap::{AddressSpace, Region};
use sprint_archsim::program::{Inbox, Kernel, KernelStatus, ThreadId};

use crate::data::{check_image_dims, stereo_pair, GrayImage};
use crate::emit;
use crate::partition::chunk_range;
use crate::suite::{InputSize, Workload};

/// Number of candidate disparities searched.
pub const DISPARITIES: usize = 8;
/// Half-width of the (horizontal) SAD window.
pub const WINDOW_HALF: usize = 2;

/// Computes the winning disparity per pixel with a sliding-window SAD.
pub fn disparity_native(left: &GrayImage, right: &GrayImage) -> Vec<u8> {
    assert_eq!(left.width, right.width);
    assert_eq!(left.height, right.height);
    let (w, h) = (left.width, left.height);
    let mut best_sad = vec![u32::MAX; w * h];
    let mut best_d = vec![0u8; w * h];
    let mut diff_row = vec![0u32; w];
    for d in 0..DISPARITIES {
        for y in 0..h {
            for (x, diff) in diff_row.iter_mut().enumerate() {
                let r = right.at_clamped(x as isize - d as isize, y as isize);
                *diff = (i32::from(left.at(x, y)) - i32::from(r)).unsigned_abs();
            }
            // Sliding horizontal window of width 2*WINDOW_HALF+1.
            let mut acc: u32 = (0..=WINDOW_HALF.min(w - 1)).map(|x| diff_row[x]).sum();
            for x in 0..w {
                let idx = y * w + x;
                if acc < best_sad[idx] {
                    best_sad[idx] = acc;
                    best_d[idx] = d as u8;
                }
                // Advance the window.
                let leaving = x as isize - WINDOW_HALF as isize;
                if leaving >= 0 {
                    acc -= diff_row[leaving as usize];
                }
                let entering = x + WINDOW_HALF + 1;
                if entering < w {
                    acc += diff_row[entering];
                }
            }
        }
    }
    best_d
}

struct DisparityData {
    width: usize,
    height: usize,
    left: Region,
    right: Region,
    map: Region,
}

/// The disparity workload: dimensions, placement and the input seed.
pub struct DisparityWorkload {
    data: Arc<DisparityData>,
    seed: u64,
}

impl std::fmt::Debug for DisparityWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisparityWorkload")
            .field("width", &self.data.width)
            .field("height", &self.data.height)
            .finish_non_exhaustive()
    }
}

impl DisparityWorkload {
    /// Builds the workload at a standard input size.
    pub fn new(size: InputSize) -> Self {
        let scale = (size.scale() as f64).sqrt();
        let w = (800.0 * scale) as usize;
        let h = (624.0 * scale) as usize;
        Self::with_dims(w, h, 0xD15_BA7)
    }

    /// Builds the workload for explicit dimensions.
    pub fn with_dims(width: usize, height: usize, seed: u64) -> Self {
        check_image_dims(width, height);
        let mut mem = AddressSpace::new();
        // SD-VBS stores images as 32-bit ints: 4 bytes per pixel of
        // streaming traffic per pass.
        let left_r = mem.alloc_bytes((width * height * 4) as u64);
        let right_r = mem.alloc_bytes((width * height * 4) as u64);
        let map_r = mem.alloc_bytes((width * height * 4) as u64);
        Self {
            data: Arc::new(DisparityData {
                width,
                height,
                left: left_r,
                right: right_r,
                map: map_r,
            }),
            seed,
        }
    }

    /// The natively computed disparity map, regenerated from the seeded
    /// stereo pair on each call.
    pub fn map(&self) -> Vec<u8> {
        let d = &self.data;
        let (left, right) = stereo_pair(d.width, d.height, DISPARITIES * 2, self.seed);
        disparity_native(&left, &right)
    }
}

impl Workload for DisparityWorkload {
    fn name(&self) -> &'static str {
        "disparity"
    }

    fn setup(&self, machine: &mut Machine, threads: usize) {
        for t in 0..threads {
            machine.spawn(Box::new(DisparityKernel::new(
                self.data.clone(),
                t,
                threads,
            )));
        }
    }

    fn work_units(&self) -> u64 {
        (self.data.width * self.data.height * DISPARITIES) as u64
    }
}

struct DisparityKernel {
    data: Arc<DisparityData>,
    rows: std::ops::Range<usize>,
    d: usize,
    y: usize,
    finished: bool,
}

impl DisparityKernel {
    fn new(data: Arc<DisparityData>, tid: usize, threads: usize) -> Self {
        let rows = chunk_range(data.height, threads, tid);
        Self {
            y: rows.start,
            rows,
            data,
            d: 0,
            finished: false,
        }
    }
}

impl Kernel for DisparityKernel {
    fn step(&mut self, _tid: ThreadId, _inbox: &mut Inbox, out: &mut Vec<Op>) -> KernelStatus {
        if self.finished {
            return KernelStatus::Done;
        }
        if self.d >= DISPARITIES {
            out.push(Op::Barrier);
            self.finished = true;
            return KernelStatus::Done;
        }
        let d = &self.data;
        let w = d.width as u64;
        // One image row per step: stream left, shifted right, and the
        // running best-SAD/disparity map (read-modify-write).
        let y = self.y as u64;
        emit::load_span(out, d.left, y * w * 4, w * 4);
        let shift = (self.d as u64).min(w - 1);
        emit::load_span(out, d.right, (y * w) * 4, (w - shift) * 4);
        emit::load_span(out, d.map, y * w * 4, w * 4);
        emit::store_span(out, d.map, y * w * 4, w * 4);
        // Sliding-window SAD: ~4 integer ops plus compare/update per px.
        emit::element_mix(out, w, 0, 4, 2);
        self.y += 1;
        if self.y >= self.rows.end {
            self.y = self.rows.start;
            self.d += 1;
        }
        KernelStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_archsim::config::MachineConfig;

    #[test]
    fn native_disparity_recovers_band_shift() {
        // The generated stereo pair shifts the middle band by a known
        // disparity; the matcher should recover it for most pixels there.
        let (l, r) = stereo_pair(192, 144, DISPARITIES * 2, 11);
        let map = disparity_native(&l, &r);
        // Middle band: band = 1 + 3y/h = 2 at y = h/2, d = 2*16/4 = 8 —
        // beyond our search range (8), so use the first band instead:
        // y < h/3 -> band 1 -> d = 4.
        let y = 20;
        let mut hits = 0;
        for x in 40..150 {
            if (i32::from(map[y * 192 + x]) - 4).abs() <= 1 {
                hits += 1;
            }
        }
        assert!(hits > 55, "expected band disparity ≈ 4, hits = {hits}/110");
    }

    #[test]
    fn disparity_map_values_in_range() {
        let w = DisparityWorkload::with_dims(96, 64, 2);
        assert!(w.map().iter().all(|&d| (d as usize) < DISPARITIES));
    }

    #[test]
    fn workload_streams_expected_traffic() {
        let wl = DisparityWorkload::with_dims(128, 64, 2);
        let mut m = Machine::new(MachineConfig::hpca().with_cores(2));
        wl.setup(&mut m, 2);
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // Every pass re-reads rows: loads dominate.
        assert!(m.stats().loads > m.stats().stores);
        assert_eq!(m.stats().barrier_episodes, 1);
    }
}
