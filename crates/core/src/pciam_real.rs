//! Real-to-complex PCIAM — the paper's §VI-A optimization, implemented.
//!
//! "The second optimization (using real to complex FFTs) will further
//! improve performance by doing less work; it will also reduce the
//! computation's memory footprint."
//!
//! Microscopy tiles are real, so their spectra are Hermitian and only
//! `(w/2+1)·h` bins are independent. The whole of Fig 2 survives on the
//! half-spectrum:
//!
//! * forward transforms: r2c, half the memory, nearly half the work;
//! * NCC: the element-wise normalized product of two Hermitian spectra is
//!   itself Hermitian, so computing it on the half-spectrum loses nothing;
//! * inverse transform: a Hermitian spectrum inverts through c2r straight
//!   to the *real* correlation surface;
//! * peak search and CCF disambiguation proceed exactly as before.
//!
//! [`Correlator`] wraps the complex and real paths behind one interface so
//! the stitcher implementations can switch with a config flag.

use std::sync::Arc;

use stitch_fft::{peaks, Planner, RealFft2d, C64};
use stitch_image::Image;

use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::opcount::OpCounters;
use crate::pciam::{PairScratch, PciamContext, DEFAULT_PEAK_COUNT};
use crate::types::{Displacement, PairKind};

/// Per-thread context for half-spectrum PCIAM computations.
pub struct RealPciamContext {
    width: usize,
    height: usize,
    fft: RealFft2d,
    /// NCC workspace: half-spectrum.
    work: Vec<C64>,
    /// Real correlation surface, `width × height`.
    surface: Vec<f64>,
    /// Reusable real-input staging for the r2c transform.
    real_in: Vec<f64>,
    pool: SpectrumPool,
    pair: PairScratch,
    counters: Arc<OpCounters>,
}

impl RealPciamContext {
    /// Builds a context for `width × height` tiles with a private
    /// spectrum pool.
    pub fn new(planner: &Planner, width: usize, height: usize, counters: Arc<OpCounters>) -> Self {
        let pool = SpectrumPool::new(stitch_fft::real::spectrum_len(width) * height);
        Self::with_pool(planner, width, height, counters, pool)
    }

    /// Like [`RealPciamContext::new`] but recycling half-spectra through
    /// a shared pool.
    pub fn with_pool(
        planner: &Planner,
        width: usize,
        height: usize,
        counters: Arc<OpCounters>,
        pool: SpectrumPool,
    ) -> Self {
        let fft = RealFft2d::new(planner, width, height);
        let spectrum_len = fft.spectrum_len();
        assert_eq!(pool.buf_len(), spectrum_len, "pool sized for other tiles");
        RealPciamContext {
            width,
            height,
            fft,
            work: vec![C64::ZERO; spectrum_len],
            surface: vec![0.0; width * height],
            real_in: vec![0.0; width * height],
            pool,
            pair: PairScratch::default(),
            counters,
        }
    }

    /// Tile width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Tile height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Length of the half-spectrum this context produces.
    pub fn spectrum_len(&self) -> usize {
        self.fft.spectrum_len()
    }

    /// The r2c forward transform of a tile — `(w/2+1)·h` complex bins,
    /// half the footprint of the complex path's `w·h`. The spectrum's
    /// storage is recycled through the context's pool.
    pub fn forward_fft(&mut self, img: &Image<u16>) -> PooledSpectrum {
        assert_eq!(img.dims(), (self.width, self.height), "tile dims mismatch");
        for (r, &p) in self.real_in.iter_mut().zip(img.pixels()) {
            *r = p as f64;
        }
        let mut spec = self.pool.acquire();
        self.fft.forward(&self.real_in, &mut spec);
        self.counters.count_forward_fft();
        spec
    }

    /// NCC on the half-spectrum, c2r inverse, top-`k` peak extraction over
    /// the real correlation surface. Peak indices address the full
    /// `width × height` surface, exactly like the complex path.
    pub fn correlation_peaks(&mut self, fa: &[C64], fb: &[C64], k: usize) -> Vec<(usize, f64)> {
        self.correlation_peaks_into(fa, fb, k);
        self.pair.peaks.clone()
    }

    /// Allocation-free core of [`RealPciamContext::correlation_peaks`]:
    /// the result lands in `self.pair.peaks`.
    fn correlation_peaks_into(&mut self, fa: &[C64], fb: &[C64], k: usize) {
        let sl = self.spectrum_len();
        assert_eq!(fa.len(), sl);
        assert_eq!(fb.len(), sl);
        // Unfused: the real path's column transform gathers/scatters
        // through the half-spectrum layout, so there is no cache-hot row
        // pass to fuse into. The NCC itself still goes through the
        // process-wide backend.
        stitch_fft::backend::active().ncc(fa, fb, &mut self.work);
        self.counters.count_elementwise();
        self.fft.inverse(&self.work, &mut self.surface);
        self.counters.count_inverse_fft();
        peaks::top_k_into(
            &self.surface,
            self.width,
            k,
            |v| v.abs(),
            &mut self.pair.cand,
            &mut self.pair.peaks,
        );
        self.counters.count_max_reduction();
    }

    /// Full pair computation with the scan-geometry constraint (see
    /// [`PciamContext::displacement_oriented`]).
    pub fn displacement_oriented(
        &mut self,
        fa: &[C64],
        fb: &[C64],
        img_a: &Image<u16>,
        img_b: &Image<u16>,
        kind: Option<PairKind>,
    ) -> Displacement {
        self.correlation_peaks_into(fa, fb, DEFAULT_PEAK_COUNT);
        self.pair.resolve(
            (self.width, self.height),
            img_a,
            img_b,
            kind,
            &self.counters,
        )
    }
}

/// Which transform path phase 1 uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TransformKind {
    /// Full complex-to-complex transforms (the paper's implementation).
    #[default]
    Complex,
    /// Real-to-complex half-spectrum transforms (§VI-A future work).
    Real,
    /// Complex transforms on mean-padded 7-smooth tiles (§VI-A future
    /// work — faster radix schedules at a few % more pixels).
    PaddedComplex,
}

/// A transform-path-agnostic PCIAM context: the stitcher implementations
/// hold one of these and switch paths by configuration.
pub enum Correlator {
    /// Complex path, exact or padded ([`PciamContext::transform_dims`]).
    Complex(PciamContext),
    /// Half-spectrum path.
    Real(RealPciamContext),
}

impl Correlator {
    /// Builds the requested path with a private spectrum pool.
    pub fn new(
        kind: TransformKind,
        planner: &Planner,
        width: usize,
        height: usize,
        counters: Arc<OpCounters>,
    ) -> Correlator {
        let pool = Correlator::spectrum_pool(kind, width, height);
        Correlator::with_pool(kind, planner, width, height, counters, pool)
    }

    /// Builds the requested path over a shared [`SpectrumPool`] (sized by
    /// [`Correlator::spectrum_pool`] for the same kind and dims), so
    /// multiple per-thread correlators recycle one set of buffers.
    pub fn with_pool(
        kind: TransformKind,
        planner: &Planner,
        width: usize,
        height: usize,
        counters: Arc<OpCounters>,
        pool: SpectrumPool,
    ) -> Correlator {
        match kind {
            TransformKind::Complex => Correlator::Complex(PciamContext::with_pool(
                planner, width, height, counters, pool,
            )),
            TransformKind::Real => Correlator::Real(RealPciamContext::with_pool(
                planner, width, height, counters, pool,
            )),
            TransformKind::PaddedComplex => Correlator::Complex(PciamContext::with_transform_dims(
                planner,
                (width, height),
                PciamContext::padded_dims_for(width, height),
                counters,
                pool,
            )),
        }
    }

    /// A pool correctly sized for `kind`'s spectra over `width × height`
    /// tiles: full `w·h` bins for the complex path, the reduced
    /// `(w/2+1)·h` for the real path, the 7-smooth padded area for the
    /// padded path.
    pub fn spectrum_pool(kind: TransformKind, width: usize, height: usize) -> SpectrumPool {
        SpectrumPool::new(Correlator::spectrum_len(kind, width, height))
    }

    /// Element count of one spectrum buffer for `kind` over
    /// `width × height` tiles — the `buf_len` an externally owned
    /// [`SpectrumPool`] must be built with to be shareable with this
    /// correlator (the batch scheduler sizes per-job quota pools from
    /// this).
    pub fn spectrum_len(kind: TransformKind, width: usize, height: usize) -> usize {
        match kind {
            TransformKind::Complex => width * height,
            TransformKind::Real => stitch_fft::real::spectrum_len(width) * height,
            TransformKind::PaddedComplex => {
                let (pw, ph) = PciamContext::padded_dims_for(width, height);
                pw * ph
            }
        }
    }

    /// Forward transform of a tile (full or half spectrum by path). The
    /// returned buffer's storage recycles through the correlator's pool.
    pub fn forward_fft(&mut self, img: &Image<u16>) -> PooledSpectrum {
        match self {
            Correlator::Complex(c) => c.forward_fft(img),
            Correlator::Real(r) => r.forward_fft(img),
        }
    }

    /// Pair displacement with the scan-geometry constraint.
    pub fn displacement_oriented(
        &mut self,
        fa: &[C64],
        fb: &[C64],
        img_a: &Image<u16>,
        img_b: &Image<u16>,
        kind: Option<PairKind>,
    ) -> Displacement {
        match self {
            Correlator::Complex(c) => c.displacement_oriented(fa, fb, img_a, img_b, kind),
            Correlator::Real(r) => r.displacement_oriented(fa, fb, img_a, img_b, kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_image::{Scene, SceneParams};

    fn scene_pair(w: usize, h: usize, dx: i64, dy: i64) -> (Image<u16>, Image<u16>) {
        let scene = Scene::generate(
            w as f64 * 3.0,
            h as f64 * 3.0,
            SceneParams {
                colony_count: 24,
                seed: 4242,
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
    fn real_path_recovers_shift() {
        let (w, h) = (96usize, 64usize);
        let (a, b) = scene_pair(w, h, 70, 3);
        let mut ctx = RealPciamContext::new(&Planner::default(), w, h, OpCounters::new_shared());
        let fa = ctx.forward_fft(&a);
        let fb = ctx.forward_fft(&b);
        let d = ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (70, 3));
    }

    #[test]
    fn real_and_complex_paths_agree() {
        let (w, h) = (64usize, 48usize);
        let planner = Planner::default();
        for (dx, dy) in [(45i64, 2i64), (48, -3), (40, 0)] {
            let (a, b) = scene_pair(w, h, dx, dy);
            let mut cc = PciamContext::new(&planner, w, h, OpCounters::new_shared());
            let fa = cc.forward_fft(&a);
            let fb = cc.forward_fft(&b);
            let d_complex = cc.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West));
            let mut rc = RealPciamContext::new(&planner, w, h, OpCounters::new_shared());
            let ra = rc.forward_fft(&a);
            let rb = rc.forward_fft(&b);
            let d_real = rc.displacement_oriented(&ra, &rb, &a, &b, Some(PairKind::West));
            assert_eq!(
                (d_real.x, d_real.y),
                (d_complex.x, d_complex.y),
                "({dx},{dy})"
            );
            assert!((d_real.correlation - d_complex.correlation).abs() < 1e-9);
        }
    }

    #[test]
    fn half_spectrum_is_smaller() {
        let ctx = RealPciamContext::new(&Planner::default(), 96, 64, OpCounters::new_shared());
        assert_eq!(ctx.spectrum_len(), (96 / 2 + 1) * 64);
        assert!(ctx.spectrum_len() < 96 * 64);
    }

    #[test]
    fn correlator_switches_paths() {
        let (w, h) = (64usize, 48usize);
        let (a, b) = scene_pair(w, h, 44, 1);
        let planner = Planner::default();
        let mut results = Vec::new();
        for kind in [TransformKind::Complex, TransformKind::Real] {
            let mut c = Correlator::new(kind, &planner, w, h, OpCounters::new_shared());
            let fa = c.forward_fft(&a);
            let fb = c.forward_fft(&b);
            results.push(c.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West)));
        }
        assert_eq!((results[0].x, results[0].y), (results[1].x, results[1].y));
        assert_eq!((results[0].x, results[0].y), (44, 1));
    }
}
