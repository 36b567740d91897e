//! `texture` — image composition, after SD-VBS's texture synthesis.
//!
//! Each round composites several source layers into the output under
//! per-tile weights. Between parallel blend rounds, a *serial* seam pass
//! walks the tile-boundary pixels to choose blend seams — the sequential
//! fraction that caps texture's parallel speedup well below linear (the
//! paper attributes texture's limited scaling to available parallelism).

use std::sync::Arc;

use sprint_archsim::isa::Op;
use sprint_archsim::machine::Machine;
use sprint_archsim::memmap::{AddressSpace, Region};
use sprint_archsim::program::{Inbox, Kernel, KernelStatus, ThreadId};

use crate::data::{check_image_dims, textured_image, GrayImage};
use crate::emit;
use crate::partition::chunk_range;
use crate::suite::{InputSize, Workload};

/// Number of source layers composited.
pub const LAYERS: usize = 4;
/// Blend rounds (each preceded by a serial seam pass).
pub const ROUNDS: usize = 2;
/// Tile edge length in pixels; seams run along tile boundaries.
pub const TILE: usize = 32;

/// Blends the layers natively: output = sum of tile-weighted layers.
pub fn compose_native(layers: &[GrayImage]) -> Vec<f32> {
    assert!(!layers.is_empty());
    let (w, h) = (layers[0].width, layers[0].height);
    let mut out = vec![0.0f32; w * h];
    for _round in 0..ROUNDS {
        for y in 0..h {
            for x in 0..w {
                let tile = (y / TILE) * (w / TILE).max(1) + (x / TILE);
                let mut acc = 0.0f32;
                for (l, layer) in layers.iter().enumerate() {
                    // Deterministic per-tile weight.
                    let weight = ((tile * 31 + l * 17) % 97) as f32 / 97.0;
                    acc += weight * f32::from(layer.at(x, y));
                }
                out[y * w + x] = 0.5 * out[y * w + x] + 0.5 * acc / LAYERS as f32;
            }
        }
    }
    out
}

/// Fraction of pixels on tile boundaries — the serial seam pass touches
/// roughly `2/TILE` of the image per round.
pub fn serial_fraction() -> f64 {
    2.0 / TILE as f64
}

struct TextureData {
    width: usize,
    height: usize,
    layers: Vec<Region>,
    output: Region,
}

/// The texture-composition workload: dimensions, placement and the seed
/// of the first layer.
pub struct TextureWorkload {
    data: Arc<TextureData>,
    seed: u64,
}

impl std::fmt::Debug for TextureWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TextureWorkload")
            .field("width", &self.data.width)
            .field("height", &self.data.height)
            .finish_non_exhaustive()
    }
}

impl TextureWorkload {
    /// Builds the workload at a standard input size.
    pub fn new(size: InputSize) -> Self {
        let scale = (size.scale() as f64).sqrt();
        let w = (512.0 * scale) as usize;
        let h = (416.0 * scale) as usize;
        Self::with_dims(w, h, 0x7E97)
    }

    /// Builds the workload for explicit dimensions.
    pub fn with_dims(width: usize, height: usize, seed: u64) -> Self {
        check_image_dims(width, height);
        let mut mem = AddressSpace::new();
        let layer_regions = (0..LAYERS)
            .map(|_| mem.alloc_bytes((width * height) as u64))
            .collect();
        let output = mem.alloc_bytes((width * height * 4) as u64);
        Self {
            data: Arc::new(TextureData {
                width,
                height,
                layers: layer_regions,
                output,
            }),
            seed,
        }
    }

    /// Checksum of the native composition, regenerated from the seeded
    /// layers on each call.
    pub fn checksum(&self) -> u64 {
        let d = &self.data;
        let layers: Vec<GrayImage> = (0..LAYERS)
            .map(|l| textured_image(d.width, d.height, self.seed + l as u64))
            .collect();
        compose_native(&layers).iter().map(|&v| v as u64).sum()
    }
}

impl Workload for TextureWorkload {
    fn name(&self) -> &'static str {
        "texture"
    }

    fn setup(&self, machine: &mut Machine, threads: usize) {
        for t in 0..threads {
            machine.spawn(Box::new(TextureKernel::new(self.data.clone(), t, threads)));
        }
    }

    fn work_units(&self) -> u64 {
        (self.data.width * self.data.height * ROUNDS) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Thread 0 walks tile boundaries; others wait at the barrier.
    Seam,
    Blend,
    RoundEnd,
    Finished,
}

struct TextureKernel {
    data: Arc<TextureData>,
    tid: usize,
    rows: std::ops::Range<usize>,
    round: usize,
    phase: Phase,
    cursor: usize,
}

impl TextureKernel {
    fn new(data: Arc<TextureData>, tid: usize, threads: usize) -> Self {
        let rows = chunk_range(data.height, threads, tid);
        Self {
            cursor: rows.start,
            rows,
            data,
            tid,
            round: 0,
            phase: Phase::Seam,
        }
    }
}

impl Kernel for TextureKernel {
    fn step(&mut self, _tid: ThreadId, _inbox: &mut Inbox, out: &mut Vec<Op>) -> KernelStatus {
        let d = &self.data;
        let w = d.width as u64;
        match self.phase {
            Phase::Seam => {
                if self.tid != 0 {
                    out.push(Op::Barrier);
                    self.phase = Phase::Blend;
                    self.cursor = self.rows.start;
                    return KernelStatus::Running;
                }
                // Thread 0: serial seam pass over tile-boundary rows.
                if self.cursor == self.rows.start {
                    self.cursor = 0;
                }
                let mut rows_done = 0;
                while self.cursor < d.height && rows_done < 4 {
                    let y = self.cursor;
                    self.cursor += TILE; // one boundary row per tile row
                    rows_done += 1;
                    // Horizontal boundary row: all layers + output, with
                    // the same per-pixel cost as blending (seam scoring).
                    for layer in &d.layers {
                        emit::load_span(out, *layer, y as u64 * w, w);
                    }
                    emit::load_span(out, d.output, y as u64 * w * 4, w * 4);
                    emit::element_mix(out, w, (LAYERS * 2) as u64, 3, 1);
                    // Vertical boundaries contribute another column's worth
                    // of work per tile column, modelled as extra compute.
                    emit::element_mix(out, w, 2, 2, 1);
                }
                if self.cursor >= d.height {
                    out.push(Op::Barrier);
                    self.phase = Phase::Blend;
                    self.cursor = self.rows.start;
                }
                KernelStatus::Running
            }
            Phase::Blend => {
                if self.cursor >= self.rows.end {
                    out.push(Op::Barrier);
                    self.phase = Phase::RoundEnd;
                    return KernelStatus::Running;
                }
                let y = self.cursor as u64;
                // Stream each layer's row, read-modify-write the output.
                for layer in &d.layers {
                    emit::load_span(out, *layer, y * w, w);
                }
                emit::load_span(out, d.output, y * w * 4, w * 4);
                emit::store_span(out, d.output, y * w * 4, w * 4);
                emit::element_mix(out, w, (LAYERS * 2) as u64, 3, 1);
                self.cursor += 1;
                KernelStatus::Running
            }
            Phase::RoundEnd => {
                self.round += 1;
                if self.round >= ROUNDS {
                    self.phase = Phase::Finished;
                    return KernelStatus::Done;
                }
                self.phase = Phase::Seam;
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
    fn native_composition_is_bounded() {
        let layers: Vec<GrayImage> = (0..LAYERS)
            .map(|l| textured_image(64, 64, l as u64))
            .collect();
        let out = compose_native(&layers);
        assert_eq!(out.len(), 64 * 64);
        assert!(out.iter().all(|&v| (0.0..=255.0).contains(&v)));
        assert!(out.iter().any(|&v| v > 1.0), "output must be non-trivial");
    }

    #[test]
    fn serial_fraction_is_small_but_material() {
        let s = serial_fraction();
        assert!(s > 0.03 && s < 0.15, "seam fraction {s}");
    }

    #[test]
    fn speedup_is_amdahl_limited() {
        let elapsed = |threads: usize| -> u64 {
            let w = TextureWorkload::with_dims(256, 192, 5);
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
            (4.0..13.0).contains(&speedup),
            "texture speedup should be Amdahl-capped: {speedup:.2}"
        );
    }

    #[test]
    fn rounds_produce_barriers() {
        let w = TextureWorkload::with_dims(128, 96, 5);
        let mut m = Machine::new(MachineConfig::hpca().with_cores(4));
        w.setup(&mut m, 4);
        while !m.all_done() {
            m.run_window(1_000_000);
        }
        // Two barriers per round (seam, blend).
        assert_eq!(m.stats().barrier_episodes, (2 * ROUNDS) as u64);
    }
}
