//! Tile sources: where the pipeline's *read* stage gets its images.
//!
//! The paper's system reads TIFF tiles from disk; tests and benches also
//! want in-memory and procedurally generated grids. All three are hidden
//! behind [`TileSource`], which every stitcher implementation consumes.
//!
//! Reads are fallible: [`TileSource::load`] returns a
//! [`SourceError`] instead of panicking, so the stitchers can retry
//! transient failures and degrade gracefully on permanent ones (see the
//! [`fault`](crate::fault) module).

use std::path::PathBuf;
use std::sync::Arc;

use stitch_image::{tiff, GridManifest, Image, SyntheticPlate};

use crate::fault::SourceError;
use crate::grid::GridShape;
use crate::types::TileId;

/// A grid of tiles the stitchers can pull from. Implementations must be
/// thread-safe: the pipelined stitchers read from multiple threads.
pub trait TileSource: Send + Sync {
    /// Grid dimensions.
    fn shape(&self) -> GridShape;
    /// Tile dimensions `(width, height)` — uniform across the grid.
    fn tile_dims(&self) -> (usize, usize);
    /// Loads (reads, renders, or clones) one tile. Errors are per-read:
    /// a [transient](SourceError::is_retryable) failure may succeed on a
    /// later call for the same tile.
    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError>;
}

/// A shared source is a source, so wrappers such as
/// [`FaultySource`](crate::fault::FaultySource) take `Arc<dyn TileSource>`.
impl<T: TileSource + ?Sized> TileSource for Arc<T> {
    fn shape(&self) -> GridShape {
        (**self).shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        (**self).tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        (**self).load(id)
    }
}

/// Tiles held in memory, row-major.
#[derive(Debug)]
pub struct MemorySource {
    shape: GridShape,
    dims: (usize, usize),
    tiles: Vec<Arc<Image<u16>>>,
}

impl MemorySource {
    /// Wraps a row-major tile vector. Panics on an empty grid or a
    /// count/dimension mismatch; use [`try_new`](MemorySource::try_new)
    /// for the error-returning form.
    pub fn new(shape: GridShape, tiles: Vec<Image<u16>>) -> MemorySource {
        MemorySource::try_new(shape, tiles).unwrap_or_else(|e| panic!("invalid MemorySource: {e}"))
    }

    /// Wraps a row-major tile vector, rejecting an empty grid (which
    /// would otherwise masquerade as a 0×0-tile source) and mismatched
    /// dimensions.
    pub fn try_new(shape: GridShape, tiles: Vec<Image<u16>>) -> Result<MemorySource, SourceError> {
        if tiles.is_empty() {
            return Err(SourceError::EmptyGrid);
        }
        if tiles.len() != shape.tiles() {
            return Err(SourceError::Manifest {
                detail: format!(
                    "tile count mismatch: {} tiles for a {}x{} grid",
                    tiles.len(),
                    shape.rows,
                    shape.cols
                ),
            });
        }
        let dims = tiles[0].dims();
        for (i, t) in tiles.iter().enumerate() {
            if t.dims() != dims {
                return Err(SourceError::Manifest {
                    detail: format!(
                        "tiles must share dimensions: tile 0 is {}x{} but tile {i} is {}x{}",
                        dims.0,
                        dims.1,
                        t.dims().0,
                        t.dims().1
                    ),
                });
            }
        }
        Ok(MemorySource {
            shape,
            dims,
            tiles: tiles.into_iter().map(Arc::new).collect(),
        })
    }
}

impl TileSource for MemorySource {
    fn shape(&self) -> GridShape {
        self.shape
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.dims
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        Ok((*self.tiles[self.shape.index(id)]).clone())
    }
}

/// Tiles rendered on demand from a [`SyntheticPlate`] (no disk I/O; used
/// by correctness tests that check against the plate's ground truth).
pub struct SyntheticSource {
    plate: SyntheticPlate,
}

impl SyntheticSource {
    /// Wraps a synthetic plate.
    pub fn new(plate: SyntheticPlate) -> SyntheticSource {
        SyntheticSource { plate }
    }

    /// The underlying plate (ground truth access).
    pub fn plate(&self) -> &SyntheticPlate {
        &self.plate
    }
}

impl TileSource for SyntheticSource {
    fn shape(&self) -> GridShape {
        GridShape::new(self.plate.config.grid_rows, self.plate.config.grid_cols)
    }

    fn tile_dims(&self) -> (usize, usize) {
        (self.plate.config.tile_width, self.plate.config.tile_height)
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        Ok(self.plate.render_tile(id.row, id.col))
    }
}

/// A rectangular window onto another source: tile `(r, c)` of the view
/// is tile `(r + row0, c + col0)` of the inner source. Loads delegate
/// directly, so a view returns *literally identical* images to the full
/// source — the foundation of the sharded stitcher's bit-identity
/// guarantee (shard-local pair registrations see the same pixels the
/// unsharded run sees).
#[derive(Clone)]
pub struct SubgridSource {
    inner: Arc<dyn TileSource>,
    row0: usize,
    col0: usize,
    shape: GridShape,
}

impl SubgridSource {
    /// Creates a view of `shape` tiles whose top-left tile is
    /// `(row0, col0)` of `inner`. Panics if the window does not fit
    /// inside the inner grid.
    pub fn new(inner: Arc<dyn TileSource>, row0: usize, col0: usize, shape: GridShape) -> Self {
        let full = inner.shape();
        assert!(
            row0 + shape.rows <= full.rows && col0 + shape.cols <= full.cols,
            "subgrid {}x{} at ({row0},{col0}) exceeds {}x{} grid",
            shape.rows,
            shape.cols,
            full.rows,
            full.cols
        );
        SubgridSource {
            inner,
            row0,
            col0,
            shape,
        }
    }

    /// The view's top-left tile in inner-grid coordinates.
    pub fn origin(&self) -> (usize, usize) {
        (self.row0, self.col0)
    }
}

impl TileSource for SubgridSource {
    fn shape(&self) -> GridShape {
        self.shape
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        self.inner
            .load(TileId::new(id.row + self.row0, id.col + self.col0))
    }
}

/// Tiles read from TIFF files on disk, as listed by a dataset manifest —
/// the configuration the paper's end-to-end timings use (6.68 GB of tiles
/// on disk, read by the pipeline's dedicated reader thread).
#[derive(Debug)]
pub struct DirSource {
    shape: GridShape,
    dims: (usize, usize),
    files: Vec<PathBuf>,
}

impl DirSource {
    /// Opens a dataset directory (see
    /// [`SyntheticPlate::write_to_dir`](stitch_image::SyntheticPlate::write_to_dir)).
    ///
    /// Validates the manifest against the directory before returning:
    /// every listed tile file must exist on disk, and *all* missing
    /// files are reported in one [`SourceError::MissingTiles`] — a
    /// multi-hour stitching run should not discover absences one tile at
    /// a time.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<DirSource, SourceError> {
        let m = GridManifest::load(dir).map_err(|e| SourceError::Manifest {
            detail: e.to_string(),
        })?;
        if m.files.is_empty() {
            return Err(SourceError::EmptyGrid);
        }
        let missing: Vec<String> = m
            .files
            .iter()
            .filter(|f| !f.is_file())
            .map(|f| f.display().to_string())
            .collect();
        if !missing.is_empty() {
            return Err(SourceError::MissingTiles { files: missing });
        }
        Ok(DirSource {
            shape: GridShape::new(m.rows, m.cols),
            dims: (m.tile_width, m.tile_height),
            files: m.files,
        })
    }
}

impl TileSource for DirSource {
    fn shape(&self) -> GridShape {
        self.shape
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.dims
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        let path = &self.files[self.shape.index(id)];
        tiff::read_tiff(path).map_err(|e| SourceError::Io {
            id,
            detail: format!("{}: {e}", path.display()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_image::ScanConfig;

    #[test]
    fn memory_source_round_trip() {
        let shape = GridShape::new(2, 2);
        let tiles: Vec<Image<u16>> = (0..4).map(|i| Image::filled(8, 6, i as u16)).collect();
        let src = MemorySource::new(shape, tiles);
        assert_eq!(src.tile_dims(), (8, 6));
        assert_eq!(src.load(TileId::new(1, 0)).unwrap().pixels()[0], 2);
    }

    #[test]
    #[should_panic]
    fn memory_source_rejects_mixed_dims() {
        MemorySource::new(
            GridShape::new(1, 2),
            vec![Image::new(4, 4), Image::new(5, 4)],
        );
    }

    #[test]
    fn memory_source_rejects_empty_grid() {
        let err = MemorySource::try_new(GridShape::new(0, 0), Vec::new()).unwrap_err();
        assert_eq!(err, SourceError::EmptyGrid);
        // count mismatch gets its own descriptive error, not a panic
        let err = MemorySource::try_new(GridShape::new(2, 2), vec![Image::new(4, 4)]).unwrap_err();
        assert!(matches!(err, SourceError::Manifest { .. }), "{err}");
        assert!(err.to_string().contains("2x2"), "{err}");
    }

    #[test]
    fn synthetic_source_dims() {
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 3,
            tile_width: 32,
            tile_height: 24,
            ..ScanConfig::default()
        };
        let src = SyntheticSource::new(SyntheticPlate::generate(cfg));
        assert_eq!(src.shape(), GridShape::new(2, 3));
        assert_eq!(src.tile_dims(), (32, 24));
        let t = src.load(TileId::new(1, 2)).unwrap();
        assert_eq!(t.dims(), (32, 24));
    }

    #[test]
    fn subgrid_view_returns_identical_tiles() {
        let cfg = ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 16,
            tile_height: 12,
            ..ScanConfig::default()
        };
        let full: Arc<dyn TileSource> =
            Arc::new(SyntheticSource::new(SyntheticPlate::generate(cfg)));
        let view = SubgridSource::new(Arc::clone(&full), 1, 2, GridShape::new(2, 2));
        assert_eq!(view.shape(), GridShape::new(2, 2));
        assert_eq!(view.tile_dims(), (16, 12));
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    view.load(TileId::new(r, c)).unwrap(),
                    full.load(TileId::new(r + 1, c + 2)).unwrap(),
                    "view tile ({r},{c}) must be bit-identical to full tile"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn subgrid_view_rejects_out_of_bounds_window() {
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 2,
            tile_width: 8,
            tile_height: 8,
            ..ScanConfig::default()
        };
        let full: Arc<dyn TileSource> =
            Arc::new(SyntheticSource::new(SyntheticPlate::generate(cfg)));
        SubgridSource::new(full, 1, 1, GridShape::new(2, 2));
    }

    #[test]
    fn dir_source_reads_back_tiles() {
        let dir = std::env::temp_dir().join("stitch_dirsource_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 2,
            tile_width: 16,
            tile_height: 12,
            ..ScanConfig::default()
        };
        let plate = SyntheticPlate::generate(cfg);
        plate.write_to_dir(&dir).unwrap();
        let src = DirSource::open(&dir).unwrap();
        assert_eq!(src.shape(), GridShape::new(2, 2));
        assert_eq!(
            src.load(TileId::new(0, 1)).unwrap(),
            plate.render_tile(0, 1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_source_reports_all_missing_tiles_up_front() {
        let dir = std::env::temp_dir().join("stitch_dirsource_missing_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 3,
            tile_width: 16,
            tile_height: 12,
            ..ScanConfig::default()
        };
        SyntheticPlate::generate(cfg).write_to_dir(&dir).unwrap();
        // delete two tiles: open must name both, not fail on the first
        let victims: Vec<PathBuf> = {
            let src = DirSource::open(&dir).unwrap();
            let shape = src.shape();
            [TileId::new(0, 1), TileId::new(1, 2)]
                .iter()
                .map(|id| src.files[shape.index(*id)].clone())
                .collect()
        };
        for v in &victims {
            std::fs::remove_file(v).unwrap();
        }
        match DirSource::open(&dir) {
            Err(SourceError::MissingTiles { files }) => {
                assert_eq!(files.len(), 2, "{files:?}");
                for v in &victims {
                    assert!(
                        files.iter().any(|f| f == &v.display().to_string()),
                        "{files:?}"
                    );
                }
            }
            other => panic!("expected MissingTiles, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
