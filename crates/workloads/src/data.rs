//! Deterministic synthetic input generation.
//!
//! The paper evaluates on camera images and sensor data we do not have;
//! these generators produce deterministic, seeded inputs with the
//! statistical structure the kernels care about: images with smooth
//! regions, edges and texture (so edge detectors, feature extractors and
//! segmenters have real work to do), stereo pairs with a known disparity
//! shift, and clustered point sets (so k-means converges in a
//! data-dependent number of iterations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grayscale 8-bit image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixel data.
    pub pixels: Vec<u8>,
}

impl GrayImage {
    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Clamped pixel access (edge pixels replicate outward).
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.at(x, y)
    }

    /// Total pixel count.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// True for a zero-pixel image (never produced by the generators).
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }
}

/// Panics unless the generators can build a `width x height` image.
/// Workloads that keep only a seed call it where their size is given.
pub(crate) fn check_image_dims(width: usize, height: usize) {
    assert!(width >= 8 && height >= 8, "image must be at least 8x8");
}

/// Generates a textured scene: smooth gradients, rectangular objects with
/// sharp edges, and band-limited noise.
pub fn textured_image(width: usize, height: usize, seed: u64) -> GrayImage {
    check_image_dims(width, height);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pixels = vec![0u8; width * height];
    // Background: two-axis gradient.
    for y in 0..height {
        for x in 0..width {
            let g = 60.0 + 80.0 * (x as f64 / width as f64) + 40.0 * (y as f64 / height as f64);
            pixels[y * width + x] = g as u8;
        }
    }
    // Objects: random rectangles with distinct intensities (sharp edges).
    let objects = 12 + (width * height / 20_000);
    for _ in 0..objects {
        let ow = rng.gen_range(width / 16..width / 4);
        let oh = rng.gen_range(height / 16..height / 4);
        let ox = rng.gen_range(0..width - ow);
        let oy = rng.gen_range(0..height - oh);
        let val: u8 = rng.gen_range(0..=255);
        for y in oy..oy + oh {
            for x in ox..ox + ow {
                pixels[y * width + x] = val;
            }
        }
    }
    // Texture: low-amplitude noise so flat regions are not exactly flat.
    for p in pixels.iter_mut() {
        let n: i16 = rng.gen_range(-6..=6);
        *p = (*p as i16 + n).clamp(0, 255) as u8;
    }
    GrayImage {
        width,
        height,
        pixels,
    }
}

/// Generates a stereo pair: the right image is the left image shifted by a
/// per-region disparity (nearer objects shift more), plus noise.
pub fn stereo_pair(
    width: usize,
    height: usize,
    max_disparity: usize,
    seed: u64,
) -> (GrayImage, GrayImage) {
    let left = textured_image(width, height, seed);
    let mut right = left.clone();
    // Three depth bands with increasing disparity.
    for y in 0..height {
        let band = 1 + (3 * y / height);
        let d = (band * max_disparity / 4).min(max_disparity - 1);
        for x in 0..width {
            right.pixels[y * width + x] = left.at_clamped(x as isize + d as isize, y as isize);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5113);
    for p in right.pixels.iter_mut() {
        let n: i16 = rng.gen_range(-3..=3);
        *p = (*p as i16 + n).clamp(0, 255) as u8;
    }
    (left, right)
}

/// Generates `n` points of dimension `dim` drawn from `clusters` Gaussian
/// blobs (so k-means has genuine cluster structure).
pub fn clustered_points(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<f32> {
    assert!(clusters > 0 && dim > 0 && n > 0, "degenerate point set");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * dim)
        .map(|_| rng.gen_range(-50.0f32..50.0))
        .collect();
    let mut points = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dim {
            let jitter: f32 = rng.gen_range(-4.0..4.0);
            points.push(centers[c * dim + d] + jitter);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textured_image_is_deterministic() {
        let a = textured_image(64, 48, 7);
        let b = textured_image(64, 48, 7);
        assert_eq!(a, b);
        let c = textured_image(64, 48, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn textured_image_has_edges() {
        let img = textured_image(128, 128, 1);
        // Count large horizontal gradients; a textured scene has plenty.
        let mut edges = 0;
        for y in 0..img.height {
            for x in 1..img.width {
                if (img.at(x, y) as i32 - img.at(x - 1, y) as i32).abs() > 30 {
                    edges += 1;
                }
            }
        }
        assert!(edges > 100, "expected edges, found {edges}");
    }

    #[test]
    fn stereo_pair_has_shifted_content() {
        let (l, r) = stereo_pair(128, 96, 16, 3);
        assert_eq!(l.width, r.width);
        // The pair must differ (shift) but be correlated (same scene).
        assert_ne!(l.pixels, r.pixels);
        let mut close = 0usize;
        let y = 48;
        let d = 8; // middle band disparity = 2*16/4 = 8
        for x in 0..l.width - d {
            if (r.at(x, y) as i32 - l.at(x + d, y) as i32).abs() < 16 {
                close += 1;
            }
        }
        assert!(
            close > (l.width - d) / 2,
            "right image should match left at the band disparity: {close}"
        );
    }

    #[test]
    fn clustered_points_have_structure() {
        let dim = 4;
        let pts = clustered_points(400, dim, 4, 11);
        assert_eq!(pts.len(), 400 * dim);
        // Points in the same cluster (stride 4 apart) are close.
        let d2 = |a: usize, b: usize| -> f32 {
            (0..dim)
                .map(|k| (pts[a * dim + k] - pts[b * dim + k]).powi(2))
                .sum()
        };
        let same = d2(0, 4);
        assert!(same < 500.0, "same-cluster distance {same}");
    }

    #[test]
    fn clamped_access_replicates_edges() {
        let img = textured_image(16, 16, 0);
        assert_eq!(img.at_clamped(-5, 0), img.at(0, 0));
        assert_eq!(img.at_clamped(20, 15), img.at(15, 15));
    }
}
