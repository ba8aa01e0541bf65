//! The §5.4 retina: centre-surround ganglion cells, lateral inhibition,
//! rank-order readout, and fault tolerance through receptive-field
//! overlap.
//!
//! "In the retina ... the spiking ganglion cells have characteristic
//! centre-on surround-off ('Mexican hat') ... receptive fields,
//! representing an array of two-dimensional filters ... The filters cover
//! the retina at different overlapping scales, and lateral inhibition
//! reduces the information redundancy ... If a neuron fails it will cease
//! to generate output and also cease to generate lateral inhibition, so a
//! near-neighbour with a similar receptive field will take over and very
//! little information will be lost."

use spinn_sim::Xoshiro256;

use crate::coding::{rank_order_encode, RankOrderCode};

/// A grayscale image (row-major, values typically in `[0, 1]`).
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Image {
    /// Creates an image filled with zeros.
    pub fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Image width, pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height, pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor (0.0 outside the frame).
    #[inline]
    pub fn get(&self, x: i64, y: i64) -> f64 {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            0.0
        } else {
            self.pixels[y as usize * self.width + x as usize]
        }
    }

    /// Mutable pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = v;
    }

    /// The raw pixels.
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// A Gaussian blob stimulus centred at `(cx, cy)`.
    pub fn gaussian_blob(width: usize, height: usize, cx: f64, cy: f64, sigma: f64) -> Self {
        let mut img = Image::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                img.pixels[y * width + x] = (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
            }
        }
        img
    }

    /// Pearson correlation between two images (0 if either is constant).
    pub fn correlation(&self, other: &Image) -> f64 {
        assert_eq!(self.pixels.len(), other.pixels.len(), "size mismatch");
        let n = self.pixels.len() as f64;
        let ma = self.pixels.iter().sum::<f64>() / n;
        let mb = other.pixels.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (a, b) in self.pixels.iter().zip(&other.pixels) {
            cov += (a - ma) * (b - mb);
            va += (a - ma) * (a - ma);
            vb += (b - mb) * (b - mb);
        }
        if va == 0.0 || vb == 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    }
}

/// One ganglion cell: a difference-of-Gaussians receptive field.
#[derive(Clone, Debug)]
pub struct GanglionCell {
    /// Receptive-field centre x, pixels.
    pub cx: f64,
    /// Receptive-field centre y, pixels.
    pub cy: f64,
    /// Centre Gaussian sigma.
    pub sigma_centre: f64,
    /// Surround Gaussian sigma (> centre).
    pub sigma_surround: f64,
    /// Centre-on (true) or centre-off polarity.
    pub on_centre: bool,
}

impl GanglionCell {
    /// The DoG kernel value at an image location.
    pub fn kernel(&self, x: f64, y: f64) -> f64 {
        let d2 = (x - self.cx).powi(2) + (y - self.cy).powi(2);
        let g = |s: f64| (-d2 / (2.0 * s * s)).exp() / (2.0 * std::f64::consts::PI * s * s);
        let dog = g(self.sigma_centre) - g(self.sigma_surround);
        if self.on_centre {
            dog
        } else {
            -dog
        }
    }

    /// The cell's linear response to an image (kernel inner product over
    /// a ±3-surround-sigma window).
    pub fn response(&self, img: &Image) -> f64 {
        let r = (3.0 * self.sigma_surround).ceil() as i64;
        let cx = self.cx.round() as i64;
        let cy = self.cy.round() as i64;
        let mut acc = 0.0;
        for y in (cy - r)..=(cy + r) {
            for x in (cx - r)..=(cx + r) {
                acc += self.kernel(x as f64, y as f64) * img.get(x, y);
            }
        }
        acc
    }
}

/// A layer of ganglion cells covering the retina at overlapping scales,
/// with lateral inhibition and a rank-order readout.
#[derive(Clone, Debug)]
pub struct RetinaLayer {
    width: usize,
    height: usize,
    cells: Vec<GanglionCell>,
    alive: Vec<bool>,
    /// Index lists of each cell's lateral-inhibition neighbours.
    neighbours: Vec<Vec<u32>>,
    /// Lateral inhibition strength (0 disables).
    pub inhibition: f64,
}

impl RetinaLayer {
    /// Builds an on-centre layer covering a `width x height` retina at
    /// the given `(centre_sigma, grid_spacing)` scales. Surround sigma is
    /// 1.6x the centre (the classic DoG ratio); neighbours for lateral
    /// inhibition are cells of the same scale within `2 x spacing`.
    pub fn new(width: usize, height: usize, scales: &[(f64, usize)]) -> Self {
        let mut cells = Vec::new();
        let mut scale_of = Vec::new();
        for (s, &(sigma, spacing)) in scales.iter().enumerate() {
            assert!(spacing > 0, "grid spacing must be positive");
            let mut y = spacing / 2;
            while y < height {
                let mut x = spacing / 2;
                while x < width {
                    cells.push(GanglionCell {
                        cx: x as f64,
                        cy: y as f64,
                        sigma_centre: sigma,
                        sigma_surround: sigma * 1.6,
                        on_centre: true,
                    });
                    scale_of.push(s);
                    x += spacing;
                }
                y += spacing;
            }
        }
        // Same-scale neighbour lists for lateral inhibition.
        let mut neighbours = vec![Vec::new(); cells.len()];
        for i in 0..cells.len() {
            for j in 0..cells.len() {
                if i == j || scale_of[i] != scale_of[j] {
                    continue;
                }
                let d2 = (cells[i].cx - cells[j].cx).powi(2) + (cells[i].cy - cells[j].cy).powi(2);
                let range = (2 * scales[scale_of[i]].1) as f64;
                if d2 <= range * range {
                    neighbours[i].push(j as u32);
                }
            }
        }
        let n = cells.len();
        RetinaLayer {
            width,
            height,
            cells,
            alive: vec![true; n],
            neighbours,
            inhibition: 0.6,
        }
    }

    /// Number of ganglion cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the layer has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells.
    pub fn cells(&self) -> &[GanglionCell] {
        &self.cells
    }

    /// Number of cells still alive.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Kills a random `fraction` of the cells ("the average adult human
    /// loses a neuron every second of their lives").
    pub fn kill_fraction(&mut self, fraction: f64, rng: &mut Xoshiro256) {
        let targets = (self.cells.len() as f64 * fraction).round() as usize;
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        rng.shuffle(&mut order);
        for &i in order.iter().take(targets) {
            self.alive[i] = false;
        }
    }

    /// Kills one specific cell.
    pub fn kill_cell(&mut self, idx: usize) {
        self.alive[idx] = false;
    }

    /// The layer's response to an image: DoG filtering, then lateral
    /// inhibition (dead cells produce no output **and no inhibition** —
    /// the §5.4 takeover mechanism), then half-rectification.
    pub fn responses(&self, img: &Image) -> Vec<f64> {
        // Half-rectified DoG responses (ganglion firing rates are
        // non-negative); dead cells output zero.
        let rect: Vec<f64> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if self.alive[i] {
                    c.response(img).max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = vec![0.0; rect.len()];
        for i in 0..rect.len() {
            if !self.alive[i] {
                continue;
            }
            let (sum, n) = self.neighbours[i]
                .iter()
                .filter(|&&j| self.alive[j as usize])
                .fold((0.0, 0usize), |(s, n), &j| (s + rect[j as usize], n + 1));
            let inhibition = if n > 0 {
                self.inhibition * sum / n as f64
            } else {
                0.0
            };
            out[i] = (rect[i] - inhibition).max(0.0);
        }
        out
    }

    /// Encodes an image as a rank-order code over the `n` most active
    /// live cells.
    pub fn encode(&self, img: &Image, n: usize) -> RankOrderCode {
        rank_order_encode(&self.responses(img), n, 1e-12)
    }

    /// Reconstructs an image estimate from a rank-order code by
    /// superposing the firing cells' *centre* Gaussians with geometric
    /// rank weights (the low-pass readout used for rank-order decoding;
    /// the inhibitory surrounds encode redundancy reduction, not
    /// luminance).
    pub fn reconstruct(&self, code: &RankOrderCode, alpha: f64) -> Image {
        let mut img = Image::new(self.width, self.height);
        let mut w = 1.0;
        for &i in &code.order {
            let cell = &self.cells[i as usize];
            let s2 = 2.0 * cell.sigma_centre * cell.sigma_centre;
            for y in 0..self.height {
                for x in 0..self.width {
                    let d2 = (x as f64 - cell.cx).powi(2) + (y as f64 - cell.cy).powi(2);
                    let v = img.get(x as i64, y as i64) + w * (-d2 / s2).exp();
                    img.set(x, y, v);
                }
            }
            w *= alpha;
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> RetinaLayer {
        RetinaLayer::new(32, 32, &[(1.2, 4), (2.4, 8)])
    }

    #[test]
    fn image_accessors_and_bounds() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, 0.5);
        assert_eq!(img.get(2, 1), 0.5);
        assert_eq!(img.get(-1, 0), 0.0);
        assert_eq!(img.get(4, 0), 0.0);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
    }

    #[test]
    fn correlation_properties() {
        let a = Image::gaussian_blob(16, 16, 8.0, 8.0, 3.0);
        assert!((a.correlation(&a) - 1.0).abs() < 1e-12);
        let b = Image::gaussian_blob(16, 16, 2.0, 2.0, 2.0);
        assert!(a.correlation(&b) < 0.99);
        let flat = Image::new(16, 16);
        assert_eq!(a.correlation(&flat), 0.0);
    }

    #[test]
    fn dog_kernel_is_mexican_hat() {
        let c = GanglionCell {
            cx: 0.0,
            cy: 0.0,
            sigma_centre: 1.0,
            sigma_surround: 1.6,
            on_centre: true,
        };
        assert!(c.kernel(0.0, 0.0) > 0.0, "positive centre");
        assert!(c.kernel(2.5, 0.0) < 0.0, "negative surround");
        assert!(c.kernel(10.0, 0.0).abs() < 1e-6, "vanishes far away");
    }

    #[test]
    fn off_centre_inverts() {
        let on = GanglionCell {
            cx: 0.0,
            cy: 0.0,
            sigma_centre: 1.0,
            sigma_surround: 1.6,
            on_centre: true,
        };
        let off = GanglionCell {
            on_centre: false,
            ..on.clone()
        };
        assert_eq!(on.kernel(1.0, 1.0), -off.kernel(1.0, 1.0));
    }

    #[test]
    fn cell_over_blob_responds_strongest() {
        let img = Image::gaussian_blob(32, 32, 10.0, 10.0, 2.0);
        let near = GanglionCell {
            cx: 10.0,
            cy: 10.0,
            sigma_centre: 1.5,
            sigma_surround: 2.4,
            on_centre: true,
        };
        let far = GanglionCell {
            cx: 25.0,
            cy: 25.0,
            ..near.clone()
        };
        assert!(near.response(&img) > far.response(&img));
        assert!(near.response(&img) > 0.0);
    }

    #[test]
    fn layer_covers_retina_at_two_scales() {
        let l = layer();
        assert_eq!(l.len(), 8 * 8 + 4 * 4);
        assert_eq!(l.alive_count(), l.len());
        assert!(!l.is_empty());
    }

    #[test]
    fn lateral_inhibition_sparsifies() {
        // "lateral inhibition reduces the information redundancy in the
        // resultant stream of spikes": a smooth blob excites many
        // overlapping cells; inhibition silences the weaker ones.
        let img = Image::gaussian_blob(32, 32, 16.0, 16.0, 5.0);
        let mut l = layer();
        l.inhibition = 0.0;
        let dense = l.responses(&img).iter().filter(|&&r| r > 1e-9).count();
        l.inhibition = 0.9;
        let sparse = l.responses(&img).iter().filter(|&&r| r > 1e-9).count();
        assert!(
            sparse < dense,
            "inhibition should reduce active cells: {sparse} vs {dense}"
        );
        assert!(sparse > 0, "the strongest cells must survive");
    }

    #[test]
    fn encode_produces_rank_order_code() {
        let img = Image::gaussian_blob(32, 32, 16.0, 16.0, 3.0);
        let l = layer();
        let code = l.encode(&img, 12);
        assert!(!code.is_empty());
        assert!(code.len() <= 12);
        // The first firing cell should be near the blob centre.
        let first = &l.cells()[code.order[0] as usize];
        let d = ((first.cx - 16.0).powi(2) + (first.cy - 16.0).powi(2)).sqrt();
        assert!(d < 6.0, "first spike {d} px from stimulus centre");
    }

    #[test]
    fn dead_cells_never_fire_and_neighbours_take_over() {
        let img = Image::gaussian_blob(32, 32, 16.0, 16.0, 3.0);
        let mut l = layer();
        let code = l.encode(&img, 8);
        let winner = code.order[0] as usize;
        let before = l.responses(&img);
        l.kill_cell(winner);
        let after = l.responses(&img);
        let code2 = l.encode(&img, 8);
        assert!(!code2.order.contains(&(winner as u32)));
        // Takeover: at least one live neighbour's response increased
        // because the dead cell stopped inhibiting it.
        let took_over = l.neighbours[winner]
            .iter()
            .any(|&j| after[j as usize] > before[j as usize] + 1e-12);
        assert!(took_over, "no neighbour took over after cell death");
    }

    #[test]
    fn reconstruction_resembles_stimulus() {
        let img = Image::gaussian_blob(32, 32, 16.0, 16.0, 3.0);
        let l = layer();
        let code = l.encode(&img, 20);
        let recon = l.reconstruct(&code, 0.9);
        let corr = img.correlation(&recon);
        assert!(corr > 0.4, "reconstruction correlation {corr} too low");
    }

    #[test]
    fn graceful_degradation_under_cell_loss() {
        // The E11 claim in miniature: 10% cell loss barely moves the
        // reconstruction; 70% loss hurts it much more.
        let img = Image::gaussian_blob(32, 32, 14.0, 18.0, 3.0);
        let healthy = layer();
        let base = healthy.reconstruct(&healthy.encode(&img, 20), 0.9);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let quality = |frac: f64, rng: &mut Xoshiro256| {
            let mut l = layer();
            l.kill_fraction(frac, rng);
            let recon = l.reconstruct(&l.encode(&img, 20), 0.9);
            base.correlation(&recon)
        };
        let q10 = quality(0.10, &mut rng);
        let q70 = quality(0.70, &mut rng);
        assert!(q10 > 0.8, "10% loss should be nearly invisible: {q10}");
        assert!(q10 > q70, "{q10} vs {q70}");
    }

    #[test]
    fn kill_fraction_counts() {
        let mut l = layer();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let n = l.len();
        l.kill_fraction(0.25, &mut rng);
        assert_eq!(l.alive_count(), n - (n as f64 * 0.25).round() as usize);
    }
}
