//! PCIAM — the phase correlation image alignment method (paper §III).
//!
//! Implements the data-flow of Fig 1 / pseudo-code of Fig 2 for one
//! adjacent pair `(a, b)`:
//!
//! 1. forward 2-D FFTs of both tiles;
//! 2. `NCC = (F_a ⊗ conj(F_b)) / |·|` — element-wise normalized conjugate
//!    multiply;
//! 3. inverse 2-D FFT of the NCC;
//! 4. max-|·| reduction → peak index `(x, y)`;
//! 5. periodicity disambiguation: the peak is only defined modulo the tile
//!    size, so the true displacement is one of the four signed candidates
//!    `{x, x−W} × {y, y−H}` (equivalently the paper's overlap modes
//!    `(x | W−x) × (y | H−y)` — same four overlap geometries, expressed
//!    with signs so northern/western jitter can be negative);
//! 6. each candidate is scored by the cross-correlation factor (Fig 3:
//!    Pearson correlation of the overlap pixels) and the best wins.
//!
//! **Convention**: `pciam(a, b)` returns `d = position(b) − position(a)`
//! in plate coordinates — pixel `p` of `b` shows the same plate content as
//! pixel `p + d` of `a`. For a west pair, `a` is the western tile and `d.x
//! ≈ +step`; for a north pair, `a` is the northern tile and `d.y ≈ +step`.
//!
//! **Padding** (§VI-A): "Padding image tiles (or trimming them) to have
//! smaller prime factors (e.g., 1536 × 1536) is known to enhance the
//! performance of FFTW and cuFFT." A [`PciamContext`] may transform on a
//! rectangle larger than the tile ([`PciamContext::padded`] picks the
//! next 7-smooth one). The tile is then embedded top-left and padded with
//! its mean — mean padding keeps the DC bin honest and avoids the hard
//! zero-edge discontinuity that would inject spurious axis correlations.
//! The correlation peak lives on the padded torus, so candidate
//! displacements come from the *padded* periodicity, while the CCF still
//! scores them against the original pixels.

use std::sync::Arc;

use stitch_fft::{c64, factor::next_smooth, peaks, Direction, Fft2d, Planner, C64};
use stitch_image::Image;

use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::opcount::OpCounters;
use crate::types::{Displacement, PairKind};

/// Minimum overlap area (in pixels) for a CCF candidate to be considered.
/// Below this the correlation estimate is meaningless noise.
const MIN_OVERLAP_PIXELS: i64 = 4;

/// How many correlation peaks are tested with the CCF before picking a
/// displacement. The paper's Fig 2 uses the single max; the ImageJ/Fiji
/// plugin it compares against checks several peaks, and with small
/// overlaps the true peak is frequently not the global one (spectral
/// leakage puts spurious maxima on the axes). Checking the top few peaks
/// costs four cheap CCF evaluations each and removes that failure mode.
pub const DEFAULT_PEAK_COUNT: usize = 8;

/// How many of the best-scoring candidates get CCF refinement. All
/// candidates are refined: the pre-refinement score of a peak one pixel
/// off the truth is a poor predictor of its refined score.
const REFINE_CANDIDATES: usize = usize::MAX;

/// Reusable per-pair working vectors (peak gather/output buffers, peak
/// indices, scored CCF candidates). Capacities converge after the first
/// pair, making the steady-state pair computation allocation-free.
#[derive(Default)]
pub(crate) struct PairScratch {
    pub(crate) cand: Vec<(usize, f64)>,
    pub(crate) peaks: Vec<(usize, f64)>,
    pub(crate) indices: Vec<usize>,
    pub(crate) scored: Vec<(f64, Displacement)>,
}

impl PairScratch {
    /// Fig 2 steps 8–12 on the peaks in `self.peaks`: expands each into
    /// its four candidates under the `period` of the correlation surface
    /// (the transform dims), scores them against the tiles' pixels, and
    /// counts one CCF group.
    pub(crate) fn resolve(
        &mut self,
        period: (usize, usize),
        img_a: &Image<u16>,
        img_b: &Image<u16>,
        kind: Option<PairKind>,
        counters: &OpCounters,
    ) -> Displacement {
        self.indices.clear();
        self.indices.extend(self.peaks.iter().map(|&(i, _)| i));
        let d = resolve_peaks_oriented_into(
            &self.indices,
            period.0,
            period.1,
            img_a,
            img_b,
            kind,
            &mut self.scored,
        );
        counters.count_ccf_group();
        d
    }
}

/// Per-thread context for PCIAM computations over one tile geometry:
/// holds the planned transforms, scratch memory, and a [`SpectrumPool`]
/// that recycles tile-spectrum buffers, so the steady-state hot path
/// performs no heap allocation at all. The transform dims equal the tile
/// dims on the exact path and exceed them on the padded one.
pub struct PciamContext {
    width: usize,
    height: usize,
    fft_w: usize,
    fft_h: usize,
    forward: Fft2d,
    inverse: Fft2d,
    scratch: Vec<C64>,
    work: Vec<C64>,
    pool: SpectrumPool,
    pair: PairScratch,
    counters: Arc<OpCounters>,
}

impl PciamContext {
    /// Builds a context for `width × height` tiles with a private
    /// spectrum pool. Plans come from (and are cached by) `planner`.
    pub fn new(planner: &Planner, width: usize, height: usize, counters: Arc<OpCounters>) -> Self {
        let pool = SpectrumPool::new(width * height);
        Self::with_pool(planner, width, height, counters, pool)
    }

    /// Like [`PciamContext::new`] but recycling spectra through a shared
    /// pool — the multi-threaded stitchers hand one pool to every worker
    /// so buffers released by one thread serve another's next tile.
    pub fn with_pool(
        planner: &Planner,
        width: usize,
        height: usize,
        counters: Arc<OpCounters>,
        pool: SpectrumPool,
    ) -> Self {
        Self::with_transform_dims(planner, (width, height), (width, height), counters, pool)
    }

    /// A context that transforms mean-padded tiles on the next 7-smooth
    /// rectangle ([`PciamContext::padded_dims_for`]), with a private pool.
    pub fn padded(
        planner: &Planner,
        width: usize,
        height: usize,
        counters: Arc<OpCounters>,
    ) -> Self {
        let (pw, ph) = Self::padded_dims_for(width, height);
        let pool = SpectrumPool::new(pw * ph);
        Self::with_transform_dims(planner, (width, height), (pw, ph), counters, pool)
    }

    /// The general constructor: `tile` dims, `transform` dims (each at
    /// least the tile's), and a pool of `transform.0 · transform.1` bins.
    pub(crate) fn with_transform_dims(
        planner: &Planner,
        tile: (usize, usize),
        transform: (usize, usize),
        counters: Arc<OpCounters>,
        pool: SpectrumPool,
    ) -> Self {
        let ((width, height), (fft_w, fft_h)) = (tile, transform);
        assert!(
            fft_w >= width && fft_h >= height,
            "transform smaller than tile"
        );
        let n = fft_w * fft_h;
        assert_eq!(pool.buf_len(), n, "pool sized for other tiles");
        PciamContext {
            width,
            height,
            fft_w,
            fft_h,
            forward: Fft2d::new(planner, fft_w, fft_h, Direction::Forward),
            inverse: Fft2d::new(planner, fft_w, fft_h, Direction::Inverse),
            scratch: vec![C64::ZERO; n],
            work: vec![C64::ZERO; n],
            pool,
            pair: PairScratch::default(),
            counters,
        }
    }

    /// The 7-smooth dims a `width × height` tile pads to.
    pub fn padded_dims_for(width: usize, height: usize) -> (usize, usize) {
        (next_smooth(width), next_smooth(height))
    }

    /// Tile width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Tile height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The transform (correlation surface) dims `(w, h)`.
    pub fn transform_dims(&self) -> (usize, usize) {
        (self.fft_w, self.fft_h)
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    /// Step 2 of Fig 2: the forward 2-D FFT of a tile (mean-padded when
    /// the transform dims exceed the tile's). The returned spectrum's
    /// storage comes from (and returns to) the context's [`SpectrumPool`]
    /// — drop it and the next tile reuses the memory.
    pub fn forward_fft(&mut self, img: &Image<u16>) -> PooledSpectrum {
        assert_eq!(img.dims(), (self.width, self.height), "tile dims mismatch");
        let mut data = self.pool.acquire();
        if (self.fft_w, self.fft_h) == (self.width, self.height) {
            for (d, &p) in data.iter_mut().zip(img.pixels()) {
                *d = c64(p as f64, 0.0);
            }
        } else {
            data.fill(c64(img.mean(), 0.0));
            for (y, dst) in data
                .chunks_exact_mut(self.fft_w)
                .take(self.height)
                .enumerate()
            {
                for (d, &p) in dst.iter_mut().zip(img.row(y)) {
                    *d = c64(p as f64, 0.0);
                }
            }
        }
        self.forward.process(&mut data, &mut self.scratch);
        self.counters.count_forward_fft();
        data
    }

    /// Steps 4–7 of Fig 2: NCC, inverse FFT, max reduction. Returns the
    /// peak's flat index and magnitude.
    pub fn correlation_peak(&mut self, fa: &[C64], fb: &[C64]) -> (usize, f64) {
        let peaks = self.correlation_peaks(fa, fb, 1);
        peaks[0]
    }

    /// Like [`PciamContext::correlation_peak`] but returns up to `k`
    /// distinct peaks (suppressing near-duplicates), strongest first.
    pub fn correlation_peaks(&mut self, fa: &[C64], fb: &[C64], k: usize) -> Vec<(usize, f64)> {
        self.correlation_peaks_into(fa, fb, k);
        self.pair.peaks.clone()
    }

    /// Allocation-free core of [`PciamContext::correlation_peaks`]: the
    /// result lands in `self.pair.peaks`. Peak indices address the
    /// transform-dims surface.
    fn correlation_peaks_into(&mut self, fa: &[C64], fb: &[C64], k: usize) {
        let n = self.fft_w * self.fft_h;
        assert_eq!(fa.len(), n);
        assert_eq!(fb.len(), n);
        assert!(k >= 1);
        // NCC (the paper's first hand-vectorized kernel, §IV-A) fused with
        // the inverse transform's row pass: each row is normalized and
        // row-transformed while cache-hot, through the process-wide
        // compute backend. Unscaled — scaling does not move the argmax.
        let backend = stitch_fft::backend::active();
        self.inverse
            .process_ncc_fused(backend, fa, fb, &mut self.work, &mut self.scratch);
        self.counters.count_elementwise();
        self.counters.count_inverse_fft();
        peaks::top_k_into(
            &self.work,
            self.fft_w,
            k,
            |v| v.norm_sqr(),
            &mut self.pair.cand,
            &mut self.pair.peaks,
        );
        self.counters.count_max_reduction();
        let scale = 1.0 / n as f64;
        for p in &mut self.pair.peaks {
            p.1 = p.1.sqrt() * scale;
        }
    }

    /// Full pair computation from precomputed transforms plus the pixel
    /// data needed for CCF disambiguation. Unconstrained (no scan-geometry
    /// prior); grid stitchers use
    /// [`PciamContext::displacement_oriented`] instead.
    pub fn displacement_from_ffts(
        &mut self,
        fa: &[C64],
        fb: &[C64],
        img_a: &Image<u16>,
        img_b: &Image<u16>,
    ) -> Displacement {
        self.displacement_oriented(fa, fb, img_a, img_b, None)
    }

    /// Like [`PciamContext::displacement_from_ffts`] but with the scan
    /// geometry made explicit: for a [`PairKind::West`] pair tile `b` is
    /// physically east of `a` (`dx ≥ 1`), for [`PairKind::North`] it is
    /// physically south (`dy ≥ 1`). The constraint discards
    /// scene-self-similarity matches in the impossible half-plane — the
    /// same stage-model prior NIST's production tool applies.
    pub fn displacement_oriented(
        &mut self,
        fa: &[C64],
        fb: &[C64],
        img_a: &Image<u16>,
        img_b: &Image<u16>,
        kind: Option<PairKind>,
    ) -> Displacement {
        self.correlation_peaks_into(fa, fb, DEFAULT_PEAK_COUNT);
        self.pair
            .resolve((self.fft_w, self.fft_h), img_a, img_b, kind, &self.counters)
    }

    /// Convenience: the whole of Fig 2 for a pair of images.
    pub fn pciam(&mut self, img_a: &Image<u16>, img_b: &Image<u16>) -> Displacement {
        let fa = self.forward_fft(img_a);
        let fb = self.forward_fft(img_b);
        self.displacement_from_ffts(&fa, &fb, img_a, img_b)
    }
}

/// Converts a correlation-peak index into the four signed displacement
/// candidates implied by FFT periodicity (Fig 2 steps 8–11).
pub fn peak_candidates(peak: usize, width: usize, height: usize) -> [(i64, i64); 4] {
    let x = (peak % width) as i64;
    let y = (peak / width) as i64;
    let w = width as i64;
    let h = height as i64;
    [(x, y), (x - w, y), (x, y - h), (x - w, y - h)]
}

/// Scores the four candidates of `peak` with the CCF and returns the
/// winner (Fig 2 step 12).
pub fn resolve_peak(
    peak: usize,
    width: usize,
    height: usize,
    img_a: &Image<u16>,
    img_b: &Image<u16>,
) -> Displacement {
    resolve_peaks(&[peak], width, height, img_a, img_b)
}

/// Scores the four interpretation candidates of *each* peak with the CCF
/// and returns the global winner.
///
/// Candidates are ranked by correlation *significance* — `ccf · √pixels`
/// with the pixel count saturating at a small fraction of the tile area —
/// rather than the raw coefficient: a 0.8 correlation over a one-pixel-thin
/// sliver is far weaker evidence than 0.6 over a thousand-pixel strip, and
/// without the weighting thin slivers win often enough to corrupt grids.
/// The saturation point matters: an unsaturated √n drags the choice toward
/// larger overlaps (smaller displacements), because on smooth content the
/// correlation one pixel off is nearly as high while the overlap is larger.
pub fn resolve_peaks(
    peaks: &[usize],
    width: usize,
    height: usize,
    img_a: &Image<u16>,
    img_b: &Image<u16>,
) -> Displacement {
    resolve_peaks_oriented(peaks, width, height, img_a, img_b, None)
}

/// [`resolve_peaks`] with an optional pair-orientation constraint; see
/// [`PciamContext::displacement_oriented`].
pub fn resolve_peaks_oriented(
    peaks: &[usize],
    width: usize,
    height: usize,
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    kind: Option<PairKind>,
) -> Displacement {
    let mut scored = Vec::with_capacity(peaks.len() * 4);
    resolve_peaks_oriented_into(peaks, width, height, img_a, img_b, kind, &mut scored)
}

/// Allocation-free core of [`resolve_peaks_oriented`]: candidate scoring
/// reuses the caller's `scored` buffer (cleared on entry).
pub(crate) fn resolve_peaks_oriented_into(
    peaks: &[usize],
    width: usize,
    height: usize,
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    kind: Option<PairKind>,
    scored: &mut Vec<(f64, Displacement)>,
) -> Displacement {
    let (center_a, center_b) = (img_a.mean(), img_b.mean());
    scored.clear();
    for &peak in peaks {
        for (dx, dy) in peak_candidates(peak, width, height) {
            if !orientation_ok(kind, dx, dy) {
                continue;
            }
            if let Some(ccf) = ccf_at_centered(img_a, img_b, center_a, center_b, dx, dy) {
                let score = candidate_score(width, height, dx, dy, ccf);
                scored.push((score, Displacement::new(dx, dy, ccf)));
            }
        }
    }
    if scored.is_empty() {
        // no candidate produced a usable overlap (degenerate tiny tiles);
        // fall back to the strongest raw peak with zero confidence
        let (dx, dy) = peak_candidates(peaks.first().copied().unwrap_or(0), width, height)[0];
        return Displacement::new(dx, dy, 0.0);
    }
    // Refine the best-scoring candidates, not just the winner: a peak a
    // pixel or two off the truth can score below a spurious-but-smooth
    // candidate, yet its refined form wins decisively. Unstable sort:
    // no allocation, and equal-score ties cannot change the outcome —
    // every survivor is refined and the winner needs a strictly higher
    // refined score.
    scored.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.dedup_by_key(|(_, d)| (d.x, d.y));
    let mut best = Displacement::new(0, 0, f64::NEG_INFINITY);
    let mut best_score = f64::NEG_INFINITY;
    for &(_, cand) in scored.iter().take(REFINE_CANDIDATES) {
        let refined = refine_ccf_centered(img_a, img_b, center_a, center_b, cand, kind);
        let score = candidate_score(width, height, refined.x, refined.y, refined.correlation);
        if score > best_score {
            best_score = score;
            best = refined;
        }
    }
    best
}

/// True when `(dx, dy)` is geometrically possible for the pair kind.
fn orientation_ok(kind: Option<PairKind>, dx: i64, dy: i64) -> bool {
    match kind {
        Some(PairKind::West) => dx >= 1,
        Some(PairKind::North) => dy >= 1,
        None => true,
    }
}

/// Hill-climbs the CCF over the 8-neighborhood of `d` until a local
/// maximum (bounded steps). Correlation peaks occasionally land a pixel or
/// two off the true displacement when the overlap is thin; the CCF
/// landscape around the truth is smooth, so a short greedy walk snaps the
/// answer onto it (the same translation refinement the NIST tool grew).
pub fn refine_ccf(img_a: &Image<u16>, img_b: &Image<u16>, d: Displacement) -> Displacement {
    refine_ccf_oriented(img_a, img_b, d, None)
}

/// [`refine_ccf`] constrained to the orientation's legal half-plane.
pub fn refine_ccf_oriented(
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    d: Displacement,
    kind: Option<PairKind>,
) -> Displacement {
    refine_ccf_centered(img_a, img_b, img_a.mean(), img_b.mean(), d, kind)
}

/// [`refine_ccf_oriented`] with caller-supplied tile means (see
/// [`ccf_at_centered`]).
fn refine_ccf_centered(
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    center_a: f64,
    center_b: f64,
    mut d: Displacement,
    kind: Option<PairKind>,
) -> Displacement {
    const MAX_STEPS: usize = 8;
    /// Search radius per step. Radius 2 jumps over the single-pixel
    /// saddles that trap a radius-1 climb on smooth content.
    const RADIUS: i64 = 2;
    let (w, h) = img_a.dims();
    let score = |disp: &Displacement| candidate_score(w, h, disp.x, disp.y, disp.correlation);
    let mut best_score = score(&d);
    for _ in 0..MAX_STEPS {
        // steepest ascent: score the whole window around the *fixed*
        // current center, then take the single best move — updating the
        // center mid-scan would shift the window away from uphill cells
        let center = d;
        let mut step_best = best_score;
        let mut step_disp = None;
        for sy in -RADIUS..=RADIUS {
            for sx in -RADIUS..=RADIUS {
                if sx == 0 && sy == 0 {
                    continue;
                }
                let (nx, ny) = (center.x + sx, center.y + sy);
                if !orientation_ok(kind, nx, ny) {
                    continue;
                }
                if let Some(c) = ccf_at_centered(img_a, img_b, center_a, center_b, nx, ny) {
                    let cand = Displacement::new(nx, ny, c);
                    let s = score(&cand);
                    if s > step_best {
                        step_best = s;
                        step_disp = Some(cand);
                    }
                }
            }
        }
        match step_disp {
            Some(next) => {
                d = next;
                best_score = step_best;
            }
            None => break,
        }
    }
    d
}

/// Significance score of a CCF candidate: the t-statistic of the Pearson
/// correlation, `ccf·√(n−2) / √(1−ccf²)`. This is the quantity that makes
/// a 0.79 correlation over a 120-pixel sliver lose to a 0.94 over a
/// 900-pixel strip (√n term) *without* dragging the choice toward larger
/// overlaps when correlations are near-equal (the `1−ccf²` term rewards
/// the sharply higher correlation at the exact alignment).
fn candidate_score(width: usize, height: usize, dx: i64, dy: i64, ccf: f64) -> f64 {
    let n = overlap_pixels(width, height, dx, dy) as f64;
    if n < 3.0 {
        return f64::NEG_INFINITY;
    }
    ccf * (n - 2.0).sqrt() / (1.0 - ccf * ccf).max(1e-9).sqrt()
}

/// Number of pixels two same-size tiles share at signed displacement
/// `(dx, dy)` (zero when disjoint).
pub fn overlap_pixels(width: usize, height: usize, dx: i64, dy: i64) -> i64 {
    let ow = width as i64 - dx.abs();
    let oh = height as i64 - dy.abs();
    if ow <= 0 || oh <= 0 {
        0
    } else {
        ow * oh
    }
}

/// The cross-correlation factor of Fig 3 evaluated at a *signed*
/// displacement: Pearson correlation of the pixels where tile `b`,
/// placed at offset `(dx, dy)` inside tile `a`'s frame, overlaps `a`.
/// `None` when the overlap is smaller than [`MIN_OVERLAP_PIXELS`].
pub fn ccf_at(img_a: &Image<u16>, img_b: &Image<u16>, dx: i64, dy: i64) -> Option<f64> {
    ccf_at_centered(img_a, img_b, img_a.mean(), img_b.mean(), dx, dy)
}

/// [`ccf_at`] with the whole-tile means supplied by the caller. The CCF
/// stage evaluates dozens of candidate offsets per pair; computing the
/// tile means once and shifting both tiles by them lets each evaluation
/// run in a single pass. (Shifting by *any* constant leaves the Pearson
/// coefficient of the overlap unchanged; shifting keeps the co-moment
/// accumulators small enough that `f64` stays exact for 16-bit pixels.)
pub fn ccf_at_centered(
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    center_a: f64,
    center_b: f64,
    dx: i64,
    dy: i64,
) -> Option<f64> {
    let (w, h) = img_a.dims();
    assert_eq!(img_b.dims(), (w, h), "CCF requires same-size tiles");
    let (w, h) = (w as i64, h as i64);
    // overlap rectangle in a's coordinates
    let ax0 = dx.max(0);
    let ay0 = dy.max(0);
    let ax1 = (w + dx).min(w);
    let ay1 = (h + dy).min(h);
    let ow = ax1 - ax0;
    let oh = ay1 - ay0;
    if ow <= 0 || oh <= 0 || ow * oh < MIN_OVERLAP_PIXELS {
        return None;
    }
    // Per-row co-moments through the compute backend (the dominant cost
    // of the disambiguation stage — a five-accumulator reduction the
    // compiler cannot auto-vectorize from the sequential form). Rows are
    // summed in order, so the only backend-dependent rounding is the
    // within-row lane association.
    let backend = stitch_fft::backend::active();
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    let mut sum_ab = 0.0;
    let mut sum_aa = 0.0;
    let mut sum_bb = 0.0;
    for ya in ay0..ay1 {
        let yb = (ya - dy) as usize;
        let row_a = &img_a.row(ya as usize)[ax0 as usize..ax1 as usize];
        let row_b = &img_b.row(yb)[(ax0 - dx) as usize..(ax1 - dx) as usize];
        let [ra, rb, rab, raa, rbb] = backend.comoment_u16(row_a, row_b, center_a, center_b);
        sum_a += ra;
        sum_b += rb;
        sum_ab += rab;
        sum_aa += raa;
        sum_bb += rbb;
    }
    let n = (ow * oh) as f64;
    let num = sum_ab - sum_a * sum_b / n;
    let den_a = sum_aa - sum_a * sum_a / n;
    let den_b = sum_bb - sum_b * sum_b / n;
    let den = (den_a * den_b).sqrt();
    Some(if den > 0.0 { num / den } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_image::{Scene, SceneParams};

    /// Renders two overlapping views of one scene, `b` offset by
    /// `(dx, dy)` plate pixels from `a`.
    fn scene_pair(w: usize, h: usize, dx: i64, dy: i64, noise: f64) -> (Image<u16>, Image<u16>) {
        let scene = Scene::generate(
            (w as f64) * 3.0,
            (h as f64) * 3.0,
            SceneParams {
                colony_count: 24,
                seed: 99,
                ..SceneParams::default()
            },
        );
        let base = (w as f64, h as f64); // start inside the scene
        let a = scene.render_region(base.0, base.1, w, h, 0.0, noise, 1);
        let b = scene.render_region(base.0 + dx as f64, base.1 + dy as f64, w, h, 0.0, noise, 2);
        (a, b)
    }

    fn ctx(w: usize, h: usize) -> PciamContext {
        PciamContext::new(&Planner::default(), w, h, OpCounters::new_shared())
    }

    #[test]
    fn recovers_known_shift_east() {
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 77, 3, 0.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (77, 3), "corr={}", d.correlation);
        assert!(d.correlation > 0.8);
    }

    #[test]
    fn recovers_negative_jitter() {
        // west pair with the eastern tile slightly *above* — dy < 0, the
        // case the signed candidates exist for
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 76, -4, 0.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (76, -4));
    }

    #[test]
    fn recovers_shift_south() {
        let (w, h) = (64, 96);
        let (a, b) = scene_pair(w, h, -2, 75, 0.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (-2, 75));
    }

    #[test]
    fn robust_to_sensor_noise() {
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 75, 2, 80.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (75, 2));
    }

    #[test]
    fn zero_shift_is_identity() {
        let (w, h) = (48, 48);
        let (a, b) = scene_pair(w, h, 0, 0, 0.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (0, 0));
        assert!(d.correlation > 0.99);
    }

    #[test]
    fn candidates_cover_all_sign_combinations() {
        let c = peak_candidates(5 + 3 * 16, 16, 12); // x=5, y=3
        assert_eq!(c, [(5, 3), (-11, 3), (5, -9), (-11, -9)]);
    }

    #[test]
    fn ccf_perfect_correlation_on_identical_overlap() {
        let img = Image::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 97) as u16);
        assert!((ccf_at(&img, &img, 0, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccf_detects_true_offset_better_than_wrong_one() {
        let (w, h) = (64, 48);
        let (a, b) = scene_pair(w, h, 50, 2, 0.0);
        let right = ccf_at(&a, &b, 50, 2).unwrap();
        let wrong = ccf_at(&a, &b, 30, 2).unwrap();
        assert!(right > wrong, "{right} vs {wrong}");
    }

    #[test]
    fn ccf_none_when_no_overlap() {
        let img = Image::from_fn(8, 8, |x, _| x as u16);
        assert!(ccf_at(&img, &img, 8, 0).is_none());
        assert!(ccf_at(&img, &img, 0, -8).is_none());
        assert!(
            ccf_at(&img, &img, 7, 7).is_none(),
            "1px overlap below minimum"
        );
    }

    #[test]
    fn ccf_constant_region_returns_zero() {
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 200u16);
        assert_eq!(ccf_at(&a, &b, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn counters_count_fig2_steps() {
        let (w, h) = (32, 32);
        let counters = OpCounters::new_shared();
        let mut ctx = PciamContext::new(&Planner::default(), w, h, Arc::clone(&counters));
        let (a, b) = scene_pair(w, h, 20, 1, 0.0);
        ctx.pciam(&a, &b);
        let s = counters.snapshot();
        assert_eq!(s.forward_ffts, 2);
        assert_eq!(s.elementwise_mults, 1);
        assert_eq!(s.inverse_ffts, 1);
        assert_eq!(s.max_reductions, 1);
        assert_eq!(s.ccf_groups, 1);
    }

    #[test]
    fn works_on_awkward_tile_sizes() {
        // 58×42 → prime-ish factors, exercises Bluestein inside the 2-D FFT
        let (w, h) = (58, 41);
        let (a, b) = scene_pair(w, h, 43, 2, 0.0);
        let d = ctx(w, h).pciam(&a, &b);
        assert_eq!((d.x, d.y), (43, 2));
    }

    /// The padded-path tests' pair: blurred, noisy views of a second scene.
    fn blurred_scene_pair(w: usize, h: usize, dx: i64, dy: i64) -> (Image<u16>, Image<u16>) {
        let scene = Scene::generate(
            w as f64 * 3.0,
            h as f64 * 3.0,
            SceneParams {
                colony_count: 20,
                seed: 777,
                ..SceneParams::default()
            },
        );
        let a = scene.render_region(w as f64, h as f64, w, h, 0.02, 30.0, 1);
        let b = scene.render_region(
            w as f64 + dx as f64,
            h as f64 + dy as f64,
            w,
            h,
            0.02,
            30.0,
            2,
        );
        (a, b)
    }

    #[test]
    fn pads_to_seven_smooth() {
        // 87 = 3·29 (29-smooth), 58 = 2·29 — awkward on purpose
        let ctx = PciamContext::padded(&Planner::default(), 87, 58, OpCounters::new_shared());
        let (pw, ph) = ctx.transform_dims();
        assert_eq!((pw, ph), (90, 60)); // 2·3²·5 and 2²·3·5
        assert!(pw >= 87 && ph >= 58);
    }

    #[test]
    fn recovers_shift_on_awkward_sizes() {
        let (w, h) = (87usize, 58usize);
        let (a, b) = blurred_scene_pair(w, h, 64, 2);
        let mut ctx = PciamContext::padded(&Planner::default(), w, h, OpCounters::new_shared());
        let fa = ctx.forward_fft(&a);
        let fb = ctx.forward_fft(&b);
        let d = ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (64, 2));
    }

    #[test]
    fn agrees_with_exact_path() {
        let (w, h) = (87usize, 58usize);
        let planner = Planner::default();
        for (dx, dy) in [(60i64, 3i64), (66, -2), (58, 0)] {
            let (a, b) = blurred_scene_pair(w, h, dx, dy);
            let mut exact = PciamContext::new(&planner, w, h, OpCounters::new_shared());
            let ea = exact.forward_fft(&a);
            let eb = exact.forward_fft(&b);
            let de = exact.displacement_oriented(&ea, &eb, &a, &b, Some(PairKind::West));
            let mut padded = PciamContext::padded(&planner, w, h, OpCounters::new_shared());
            let pa = padded.forward_fft(&a);
            let pb = padded.forward_fft(&b);
            let dp = padded.displacement_oriented(&pa, &pb, &a, &b, Some(PairKind::West));
            assert_eq!((dp.x, dp.y), (de.x, de.y), "({dx},{dy})");
        }
    }

    #[test]
    fn already_smooth_sizes_pad_to_themselves() {
        let ctx = PciamContext::padded(&Planner::default(), 96, 64, OpCounters::new_shared());
        assert_eq!(ctx.transform_dims(), (96, 64));
    }
}
