//! Phase 3: composing the stitched mosaic (§III, §VI-A, Figs 13–14).
//!
//! "The third phase uses the absolute displacements to compose the
//! stitched image"; the paper renders its 17k×22k result with an *overlay*
//! blend (Fig 13) and a variant with highlighted tile borders (Fig 14),
//! and prototypes a visualization tool that renders "at varying
//! resolutions" (image pyramids). Composition is region-based so it can
//! run on demand — "the third phase can be carried out on demand as part
//! of visualizing the stitched image."

use std::collections::HashMap;

use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::global_opt::AbsolutePositions;
use crate::source::TileSource;
use crate::types::TileId;

/// How overlapping pixels are resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Blend {
    /// Later tiles (row-major order) overwrite earlier ones — the paper's
    /// Fig 13 overlay blend.
    #[default]
    Overlay,
    /// The first tile to cover a pixel wins.
    First,
    /// Unweighted mean of every tile covering the pixel.
    Average,
    /// Distance-to-edge feathered mean (smooth seams).
    Linear,
}

/// The blend kernel of phase 3, shared by [`Composer`] and the pyramid
/// canvas: `f64` accumulators over a `w × h` window, tiles added in
/// row-major id order, highlight borders overriding the blend, and
/// `(acc / weight).clamp(0, 65535).round()` resolution.
pub struct BlendAccumulator {
    blend: Blend,
    w: usize,
    h: usize,
    acc: Vec<f64>,
    weight: Vec<f64>,
    /// Borders beat the blend: marked while adding, stamped on finish.
    border_mask: Option<Vec<bool>>,
}

impl BlendAccumulator {
    /// An empty `w × h` window.
    pub fn new(blend: Blend, highlight_tiles: bool, w: usize, h: usize) -> BlendAccumulator {
        BlendAccumulator {
            blend,
            w,
            h,
            acc: vec![0.0; w * h],
            weight: vec![0.0; w * h],
            border_mask: highlight_tiles.then(|| vec![false; w * h]),
        }
    }

    /// True when a `tw × th` tile with its top-left at `(px, py)` (window
    /// coordinates) overlaps the window.
    pub fn touches(&self, px: i64, py: i64, tw: usize, th: usize) -> bool {
        px.max(0) < (px + tw as i64).min(self.w as i64)
            && py.max(0) < (py + th as i64).min(self.h as i64)
    }

    /// Blends the part of `tile` (top-left at `(px, py)` in window
    /// coordinates) that falls inside the window. Returns whether any
    /// pixel was covered.
    pub fn add(&mut self, tile: &Image<u16>, px: i64, py: i64) -> bool {
        let (tw, th) = tile.dims();
        let w = self.w;
        let ix0 = px.max(0);
        let iy0 = py.max(0);
        let ix1 = (px + tw as i64).min(w as i64);
        let iy1 = (py + th as i64).min(self.h as i64);
        if ix0 >= ix1 || iy0 >= iy1 {
            return false;
        }
        let (acc, weight) = (&mut self.acc, &mut self.weight);
        for gy in iy0..iy1 {
            let ty = (gy - py) as usize;
            let row = tile.row(ty);
            let out_row = gy as usize * w;
            for gx in ix0..ix1 {
                let tx = (gx - px) as usize;
                let v = row[tx] as f64;
                let oi = out_row + gx as usize;
                if let Some(mask) = self.border_mask.as_deref_mut() {
                    if tx == 0 || ty == 0 || tx == tw - 1 || ty == th - 1 {
                        mask[oi] = true;
                    }
                }
                match self.blend {
                    Blend::Overlay => {
                        acc[oi] = v;
                        weight[oi] = 1.0;
                    }
                    Blend::First => {
                        if weight[oi] == 0.0 {
                            acc[oi] = v;
                            weight[oi] = 1.0;
                        }
                    }
                    Blend::Average => {
                        acc[oi] += v;
                        weight[oi] += 1.0;
                    }
                    Blend::Linear => {
                        // weight by distance to the nearest tile edge
                        let dxe = (tx.min(tw - 1 - tx) + 1) as f64;
                        let dye = (ty.min(th - 1 - ty) + 1) as f64;
                        let wgt = dxe * dye;
                        acc[oi] += v * wgt;
                        weight[oi] += wgt;
                    }
                }
            }
        }
        true
    }

    /// Resolves the window to pixels, row-major; uncovered pixels are 0.
    pub fn finish(self) -> Vec<u16> {
        let mut pixels: Vec<u16> = self
            .acc
            .into_iter()
            .zip(self.weight)
            .map(|(a, wt)| {
                if wt > 0.0 {
                    (a / wt).clamp(0.0, 65535.0).round() as u16
                } else {
                    0
                }
            })
            .collect();
        if let Some(mask) = self.border_mask {
            for (px, is_border) in pixels.iter_mut().zip(mask) {
                if is_border {
                    *px = 65535;
                }
            }
        }
        pixels
    }
}

/// Mosaic composer: absolute positions + blend mode.
pub struct Composer {
    positions: AbsolutePositions,
    blend: Blend,
    /// Draw 1-px tile borders at full intensity (Fig 14's highlighted
    /// tiles). Borders *override* the blend: a border pixel renders at
    /// full intensity even where `Average`/`Linear` would otherwise mix
    /// it down with overlapping interiors.
    pub highlight_tiles: bool,
    trace: TraceHandle,
    /// Cached at construction (positions are immutable afterwards), so
    /// per-region composition doesn't rescan every position.
    origin: (i64, i64),
}

impl Composer {
    /// Creates a composer.
    pub fn new(positions: AbsolutePositions, blend: Blend) -> Composer {
        let ox = positions.positions.iter().map(|p| p.0).min().unwrap_or(0);
        let oy = positions.positions.iter().map(|p| p.1).min().unwrap_or(0);
        Composer {
            positions,
            blend,
            highlight_tiles: false,
            trace: TraceHandle::disabled(),
            origin: (ox, oy),
        }
    }

    /// Records tile reads (cat `"io"`) and the blend loop (cat
    /// `"compute"`) of each composition call on track `"compose"`.
    pub fn with_trace(mut self, trace: TraceHandle) -> Composer {
        self.trace = trace;
        self
    }

    /// The blend mode.
    pub fn blend(&self) -> Blend {
        self.blend
    }

    /// The absolute positions in use.
    pub fn positions(&self) -> &AbsolutePositions {
        &self.positions
    }

    /// The mosaic origin: the minimum placed coordinate on each axis.
    /// [`GlobalOptimizer::solve`](crate::global_opt::GlobalOptimizer::solve)
    /// normalizes positions so this is `(0, 0)`, but hand-built or
    /// partially-updated position sets may legitimately place tiles at
    /// negative coordinates; every composition method translates by this
    /// origin so such sets render correctly instead of wrapping through an
    /// unsigned cast. The origin is computed once at construction.
    pub fn origin(&self) -> (i64, i64) {
        self.origin
    }

    /// Full mosaic dimensions for `source`'s tile size (origin-translated
    /// bounding box of every tile).
    pub fn mosaic_dims(&self, source: &dyn TileSource) -> (usize, usize) {
        let (tw, th) = source.tile_dims();
        let (ox, oy) = self.origin;
        let max_x = self.positions.positions.iter().map(|p| p.0).max();
        let max_y = self.positions.positions.iter().map(|p| p.1).max();
        match (max_x, max_y) {
            (Some(mx), Some(my)) => ((mx - ox) as usize + tw, (my - oy) as usize + th),
            _ => (0, 0),
        }
    }

    /// Composes the whole mosaic.
    pub fn compose(&self, source: &dyn TileSource) -> Image<u16> {
        let (mw, mh) = self.mosaic_dims(source);
        self.compose_region(source, 0, 0, mw, mh)
    }

    /// Composes only the `w × h` window at `(x0, y0)` of the mosaic —
    /// the on-demand path used for interactive visualization. Window
    /// coordinates are origin-translated mosaic coordinates: `(0, 0)` is
    /// the top-left of the bounding box, i.e. [`Composer::origin`].
    pub fn compose_region(
        &self,
        source: &dyn TileSource,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> Image<u16> {
        self.compose_region_cached(source, x0, y0, w, h, None)
    }

    /// [`Composer::compose_region`] with an optional cross-call tile
    /// cache: cached tiles are blended without re-reading the source (and
    /// without re-recording an `io` trace span). Failed reads are not
    /// cached, so a hole in one region is still retried by the next.
    fn compose_region_cached(
        &self,
        source: &dyn TileSource,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
        mut cache: Option<&mut HashMap<TileId, Image<u16>>>,
    ) -> Image<u16> {
        let (tw, th) = source.tile_dims();
        let (ox, oy) = self.origin;
        let shape = self.positions.shape;
        let mut blend = BlendAccumulator::new(self.blend, self.highlight_tiles, w, h);
        let (rx0, ry0) = (x0 as i64, y0 as i64);
        let _span = self
            .trace
            .scope("compose", "compute", format!("region {w}x{h}@({x0},{y0})"));
        for id in shape.ids() {
            let (px, py) = self.positions.get(id);
            // tile origin in window coordinates
            let (px, py) = (px - ox - rx0, py - oy - ry0);
            if !blend.touches(px, py, tw, th) {
                continue;
            }
            // a tile that can't be read leaves a hole in the mosaic
            // rather than aborting the whole composition
            let mut owned = None;
            let tile: &Image<u16> = match cache.as_deref_mut() {
                Some(tiles) => {
                    if let std::collections::hash_map::Entry::Vacant(slot) = tiles.entry(id) {
                        let Ok(loaded) = self.traced_load(source, id) else {
                            continue;
                        };
                        slot.insert(loaded);
                    }
                    &tiles[&id]
                }
                None => {
                    let Ok(loaded) = self.traced_load(source, id) else {
                        continue;
                    };
                    owned.insert(loaded)
                }
            };
            blend.add(tile, px, py);
        }
        Image::from_vec(w, h, blend.finish())
    }

    fn traced_load(&self, source: &dyn TileSource, id: TileId) -> Result<Image<u16>, ()> {
        let r0 = self.trace.now_ns();
        let loaded = source.load(id);
        self.trace.record(
            "compose",
            "io",
            format!("read r{}c{}", id.row, id.col),
            r0,
            self.trace.now_ns(),
        );
        loaded.map_err(|_| ())
    }

    /// Composes the mosaic as a sequence of full-width horizontal bands
    /// of at most `band_rows` pixel rows, calling `sink(y0, band)` for
    /// each band from top to bottom. Every blend mode resolves a pixel
    /// from the tiles covering *that pixel* alone, so the stacked bands
    /// are bit-identical to [`Composer::compose`] while peak memory is
    /// one band plus the row of tiles it intersects, instead of the whole
    /// mosaic — the out-of-core composition path used by the sharded
    /// stitcher.
    ///
    /// Tiles spanning several bands are read once and kept in a cache
    /// until the bands have moved past their footprint (they used to be
    /// re-read ⌈tile_h / band_rows⌉ times); the `compose` trace records
    /// exactly one `io` span per tile actually read.
    pub fn compose_bands(
        &self,
        source: &dyn TileSource,
        band_rows: usize,
        sink: &mut dyn FnMut(usize, Image<u16>),
    ) {
        let band_rows = band_rows.max(1);
        let (mw, mh) = self.mosaic_dims(source);
        let (_, th) = source.tile_dims();
        let (_, oy) = self.origin;
        let mut cache: HashMap<TileId, Image<u16>> = HashMap::new();
        let mut y = 0;
        while y < mh {
            let h = band_rows.min(mh - y);
            let band = self.compose_region_cached(source, 0, y, mw, h, Some(&mut cache));
            sink(y, band);
            y += h;
            // evict tiles whose footprint lies fully above the next band
            cache.retain(|id, _| self.positions.get(*id).1 - oy + th as i64 > y as i64);
        }
    }

    /// Renders the tile at grid position `id` into mosaic coordinates —
    /// convenience for spot checks. Positions are translated by
    /// [`Composer::origin`] first, so a tile legitimately placed at a
    /// negative coordinate renders its window instead of wrapping to a
    /// huge offset.
    pub fn tile_window(&self, source: &dyn TileSource, id: TileId) -> Image<u16> {
        let (tw, th) = source.tile_dims();
        let (x, y) = self.positions.get(id);
        let (ox, oy) = self.origin();
        self.compose_region(source, (x - ox) as usize, (y - oy) as usize, tw, th)
    }
}

/// Builds an image pyramid: level 0 is `base`, each further level halves
/// both dimensions by 2×2 averaging (the §VI-A visualization prototype
/// "generates image pyramids ... and renders a stitched image at varying
/// resolutions").
///
/// Averages are rounded to the nearest integer (ties round up), not
/// floored — flooring would darken every level by up to 0.75 intensity
/// units and the bias would compound across levels. When a dimension is
/// odd, the trailing edge row/column has no 2×2 partner and is dropped
/// (each level is exactly `(w / 2, h / 2)`); levels stop early once either
/// dimension reaches 1.
pub fn pyramid(base: Image<u16>, levels: usize) -> Vec<Image<u16>> {
    let mut out = Vec::with_capacity(levels + 1);
    out.push(base);
    for _ in 0..levels {
        let prev = out.last().unwrap();
        let (w, h) = prev.dims();
        if w <= 1 || h <= 1 {
            break;
        }
        let (nw, nh) = (w / 2, h / 2);
        let next = Image::from_fn(nw, nh, |x, y| {
            let s = prev.get(2 * x, 2 * y) as u32
                + prev.get(2 * x + 1, 2 * y) as u32
                + prev.get(2 * x, 2 * y + 1) as u32
                + prev.get(2 * x + 1, 2 * y + 1) as u32;
            ((s + 2) / 4) as u16
        });
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_opt::AbsolutePositions;
    use crate::grid::GridShape;
    use crate::source::MemorySource;
    use crate::stitcher::Stitcher;

    fn simple_setup() -> (MemorySource, AbsolutePositions) {
        // 1×2 grid of 8×8 tiles overlapping by 3 px
        let shape = GridShape::new(1, 2);
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 300u16);
        let src = MemorySource::new(shape, vec![a, b]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(0, 0), (5, 0)],
        };
        (src, pos)
    }

    #[test]
    fn mosaic_dims() {
        let (src, pos) = simple_setup();
        let c = Composer::new(pos, Blend::Overlay);
        assert_eq!(c.mosaic_dims(&src), (13, 8));
    }

    #[test]
    fn overlay_last_tile_wins() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Overlay).compose(&src);
        assert_eq!(m.get(2, 4), 100);
        assert_eq!(m.get(6, 4), 300, "overlap region owned by tile b");
        assert_eq!(m.get(12, 4), 300);
    }

    #[test]
    fn banded_composition_is_bit_identical_to_full() {
        use stitch_image::{ScanConfig, SyntheticPlate};
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 3,
            tile_width: 24,
            tile_height: 18,
            ..ScanConfig::default()
        };
        let src = crate::source::SyntheticSource::new(SyntheticPlate::generate(cfg));
        let result = crate::simple_cpu::SimpleCpuStitcher::default().compute_displacements(&src);
        let pos = crate::global_opt::GlobalOptimizer::default().solve(&result);
        for blend in [Blend::Overlay, Blend::Average, Blend::Linear] {
            let c = Composer::new(pos.clone(), blend);
            let full = c.compose(&src);
            // odd band height that does not divide the mosaic: exercises
            // the remainder band
            for band_rows in [1usize, 7, 1000] {
                let (mw, mh) = c.mosaic_dims(&src);
                let mut stacked = Vec::with_capacity(mw * mh);
                let mut next_y = 0;
                c.compose_bands(&src, band_rows, &mut |y0, band| {
                    assert_eq!(y0, next_y, "bands must arrive in order");
                    assert_eq!(band.width(), mw);
                    stacked.extend_from_slice(band.pixels());
                    next_y += band.height();
                });
                assert_eq!(next_y, mh, "bands must cover the mosaic");
                assert_eq!(
                    stacked,
                    full.pixels(),
                    "band_rows={band_rows} blend={blend:?} must stack to the full compose"
                );
            }
        }
    }

    #[test]
    fn first_blend_keeps_first_tile() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::First).compose(&src);
        assert_eq!(m.get(6, 4), 100, "overlap region owned by tile a");
    }

    #[test]
    fn average_blend_midpoint_in_overlap() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Average).compose(&src);
        assert_eq!(m.get(6, 4), 200);
        assert_eq!(m.get(1, 1), 100);
        assert_eq!(m.get(12, 7), 300);
    }

    #[test]
    fn linear_blend_bounded_by_inputs() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Linear).compose(&src);
        let v = m.get(6, 4);
        assert!((100..=300).contains(&v), "{v}");
    }

    #[test]
    fn uncovered_pixels_are_black() {
        let shape = GridShape::new(1, 2);
        let src = MemorySource::new(shape, vec![Image::filled(4, 4, 9u16); 2]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(0, 0), (10, 0)], // gap between tiles
        };
        let m = Composer::new(pos, Blend::Overlay).compose(&src);
        assert_eq!(m.get(6, 2), 0);
        assert_eq!(m.get(1, 1), 9);
        assert_eq!(m.get(11, 1), 9);
    }

    #[test]
    fn region_matches_full_compose() {
        let (src, pos) = simple_setup();
        let c = Composer::new(pos, Blend::Average);
        let full = c.compose(&src);
        let region = c.compose_region(&src, 4, 2, 6, 4);
        for y in 0..4 {
            for x in 0..6 {
                assert_eq!(region.get(x, y), full.get(x + 4, y + 2));
            }
        }
    }

    #[test]
    fn highlight_draws_borders() {
        let (src, pos) = simple_setup();
        let mut c = Composer::new(pos, Blend::Overlay);
        c.highlight_tiles = true;
        let m = c.compose(&src);
        assert_eq!(m.get(0, 0), 65535);
        assert_eq!(m.get(12, 7), 65535);
        assert_eq!(m.get(2, 4), 100, "interior untouched");
    }

    #[test]
    fn banded_compose_reads_each_tile_once() {
        use stitch_image::{ScanConfig, SyntheticPlate};
        let cfg = ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 24,
            tile_height: 18,
            ..ScanConfig::default()
        };
        let src = crate::source::SyntheticSource::new(SyntheticPlate::generate(cfg));
        let result = crate::simple_cpu::SimpleCpuStitcher::default().compute_displacements(&src);
        let pos = crate::global_opt::GlobalOptimizer::default().solve(&result);
        // band_rows far below tile_height: every tile spans several bands
        // and used to be re-read once per band it intersected
        for band_rows in [1usize, 5] {
            let trace = stitch_trace::TraceHandle::new();
            let c = Composer::new(pos.clone(), Blend::Average).with_trace(trace.clone());
            c.compose_bands(&src, band_rows, &mut |_, _| {});
            let reads = trace.spans().iter().filter(|s| s.cat == "io").count();
            assert_eq!(
                reads,
                pos.shape.tiles(),
                "band_rows={band_rows}: each tile must be read exactly once"
            );
        }
    }

    #[test]
    fn highlight_borders_override_blend_in_overlaps() {
        // Regression: border pixels used to enter the Average/Linear
        // accumulators like any other sample, so a border crossing an
        // overlap was mixed down (e.g. (65535 + 300) / 2) and Fig-14
        // style tile outlines dimmed or vanished. Borders must override.
        let (src, pos) = simple_setup();
        for blend in [Blend::Overlay, Blend::First, Blend::Average, Blend::Linear] {
            let mut c = Composer::new(pos.clone(), blend);
            c.highlight_tiles = true;
            let m = c.compose(&src);
            // tile a's right border (x=7) and tile b's left border (x=5)
            // both sit inside the overlap x∈[5,8)
            assert_eq!(m.get(7, 4), 65535, "{blend:?}: a's border must show");
            assert_eq!(m.get(5, 4), 65535, "{blend:?}: b's border must show");
            assert_eq!(m.get(0, 0), 65535, "{blend:?}: outer border");
            assert_eq!(m.get(2, 4), 100, "{blend:?}: interior untouched");
        }
        // non-border overlap pixels still blend normally
        let mut c = Composer::new(pos, Blend::Average);
        c.highlight_tiles = true;
        assert_eq!(c.compose(&src).get(6, 2), 200);
    }

    #[test]
    fn negative_positions_translate_instead_of_wrap() {
        // tile a hand-placed at (-5, -3): before origin translation this
        // wrapped through `as usize` into a huge offset
        let shape = GridShape::new(1, 2);
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 300u16);
        let src = MemorySource::new(shape, vec![a, b]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(-5, -3), (0, 0)],
        };
        let c = Composer::new(pos, Blend::Overlay);
        assert_eq!(c.origin(), (-5, -3));
        // bounding box: x spans [-5, 8), y spans [-3, 8) → 13 × 11
        assert_eq!(c.mosaic_dims(&src), (13, 11));
        let m = c.compose(&src);
        assert_eq!(m.get(0, 0), 100, "tile a renders at the origin");
        assert_eq!(m.get(12, 10), 300, "tile b at its translated offset");
        assert_eq!(m.get(12, 0), 0, "corner covered by neither tile");
        // identical to composing the same layout shifted to min (0,0)
        let norm = Composer::new(
            AbsolutePositions {
                shape,
                positions: vec![(0, 0), (5, 3)],
            },
            Blend::Overlay,
        )
        .compose(&src);
        assert_eq!(m.pixels(), norm.pixels());
    }

    #[test]
    fn tile_window_handles_negative_positions() {
        let shape = GridShape::new(1, 2);
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 300u16);
        let src = MemorySource::new(shape, vec![a, b]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(-5, -3), (0, 0)],
        };
        let c = Composer::new(pos, Blend::First);
        let wa = c.tile_window(&src, TileId { row: 0, col: 0 });
        assert_eq!(wa.dims(), (8, 8));
        assert_eq!(wa.get(0, 0), 100);
        let wb = c.tile_window(&src, TileId { row: 0, col: 1 });
        assert_eq!(wb.dims(), (8, 8));
        // tile a (First blend) still owns the overlapping corner of b's window
        assert_eq!(wb.get(0, 0), 100);
        assert_eq!(wb.get(7, 7), 300);
    }

    #[test]
    fn traced_compose_records_read_and_blend_spans() {
        let (src, pos) = simple_setup();
        let trace = stitch_trace::TraceHandle::new();
        Composer::new(pos, Blend::Overlay)
            .with_trace(trace.clone())
            .compose(&src);
        let spans = trace.spans();
        assert!(spans.iter().any(|s| s.cat == "io" && s.name == "read r0c0"));
        assert!(spans
            .iter()
            .any(|s| s.cat == "compute" && s.name.starts_with("region ")));
    }

    #[test]
    fn pyramid_rounds_to_nearest_not_floor() {
        // 2×2 block (1,2,3,5): mean 2.75 → rounds to 3 (flooring gave 2)
        let base = Image::from_vec(2, 2, vec![1u16, 2, 3, 5]);
        let pyr = pyramid(base, 1);
        assert_eq!(pyr[1].dims(), (1, 1));
        assert_eq!(pyr[1].get(0, 0), 3);
        // saturation-safe at the top of the range
        let bright = Image::filled(2, 2, 65535u16);
        assert_eq!(pyramid(bright, 1)[1].get(0, 0), 65535);
    }

    #[test]
    fn pyramid_level1_pins_values_and_drops_odd_edges() {
        // 5×3 base: only the 4×2 even region participates in level 1;
        // column 4 and row 2 are dropped (documented edge behavior)
        let base = Image::from_fn(5, 3, |x, y| (10 * y + x) as u16);
        // rows: [0 1 2 3 4] [10 11 12 13 14] [20 21 22 23 24]
        let pyr = pyramid(base, 1);
        assert_eq!(pyr[1].dims(), (2, 1));
        // (0,0): avg(0,1,10,11) = 5.5 → 6; (1,0): avg(2,3,12,13) = 7.5 → 8
        assert_eq!(pyr[1].get(0, 0), 6);
        assert_eq!(pyr[1].get(1, 0), 8);
    }

    #[test]
    fn pyramid_halves_dimensions() {
        let base = Image::from_fn(16, 12, |x, y| (x * y) as u16);
        let pyr = pyramid(base, 3);
        assert_eq!(pyr.len(), 4);
        assert_eq!(pyr[1].dims(), (8, 6));
        assert_eq!(pyr[2].dims(), (4, 3));
        assert_eq!(pyr[3].dims(), (2, 1));
    }

    #[test]
    fn pyramid_preserves_mean_roughly() {
        let base = Image::filled(32, 32, 500u16);
        let pyr = pyramid(base, 2);
        assert_eq!(pyr[2].pixels().iter().copied().max(), Some(500));
        assert_eq!(pyr[2].pixels().iter().copied().min(), Some(500));
    }
}
