//! The sharded stitching driver: shards-as-scheduler-jobs, seam merge,
//! the global solve, and out-of-core banded composition.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stitch_core::{
    AbsolutePositions, Blend, Composer, FailurePolicy, GlobalOptimizer, StitchError, StitchResult,
    SubgridSource, TileSource,
};
use stitch_fft::PlanMode;
use stitch_image::Image;
use stitch_sched::{
    DrainPolicy, JobStatus, JobVariant, Scheduler, SchedulerConfig, StitchJob, SubmitError,
};
use stitch_trace::TraceHandle;

use crate::merge::{merge_results, register_seams};
use crate::plan::ShardPlan;

/// Configuration for [`stitch_sharded`].
#[derive(Clone)]
pub struct ShardConfig {
    /// Maximum tile rows per shard.
    pub shard_rows: usize,
    /// Maximum tile columns per shard.
    pub shard_cols: usize,
    /// Concurrent shard jobs (scheduler worker threads).
    pub workers: usize,
    /// Host-memory byte budget shared by all in-flight shards — the
    /// scheduler's admission-control budget. Peak arbiter usage is
    /// `workers × one shard's estimate` regardless of total grid size,
    /// which is what keeps sharded memory flat in grid area.
    pub memory_budget: usize,
    /// Stitcher variant each shard job runs.
    pub variant: JobVariant,
    /// Compute threads per shard job (multi-threaded variants).
    pub threads: usize,
    /// When set, compose the mosaic with this blend after the solve.
    pub compose: Option<Blend>,
    /// Pixel rows per composition band (out-of-core streaming; bounds
    /// composition memory to one band plus one tile).
    pub band_rows: usize,
    /// Phase-2 optimizer for the committed solve, the per-shard local
    /// solves, and the anchor solve.
    pub optimizer: GlobalOptimizer,
    /// Tile-read failure policy for the seam walk (shard jobs use the
    /// scheduler's default policy).
    pub policy: FailurePolicy,
    /// Trace sink; per-shard lanes appear as `job.shard-rXcY/…` and the
    /// merge/solve/compose phases on `shard/…` tracks.
    pub trace: TraceHandle,
    /// Chaos hook: cancel this shard index right after submission (the
    /// stress harness's mid-run cancellation scenario).
    pub cancel_shard: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shard_rows: 4,
            shard_cols: 4,
            workers: 2,
            memory_budget: 256 << 20,
            variant: JobVariant::SimpleCpu,
            threads: 1,
            compose: None,
            band_rows: 64,
            optimizer: GlobalOptimizer::default(),
            policy: FailurePolicy::default(),
            trace: TraceHandle::disabled(),
            cancel_shard: None,
        }
    }
}

/// Everything a sharded run produced.
pub struct ShardOutcome {
    /// The merged full-grid phase-1 result (bit-identical pair graph to
    /// an unsharded run over the same source).
    pub result: StitchResult,
    /// Committed absolute positions: the standard optimizer run on the
    /// merged graph (bit-identical to the unsharded solve).
    pub positions: AbsolutePositions,
    /// Composed mosaic, when requested and collected.
    pub mosaic: Option<Image<u16>>,
    /// Shards the plan produced.
    pub shard_count: usize,
    /// Seam pairs registered during the merge.
    pub seam_pairs: usize,
    /// Arbiter memory high-water across the whole run, in bytes.
    pub high_water: usize,
    /// The configured budget, for convenience.
    pub budget: usize,
    /// Arbiter reservations still alive after drain (must be 0).
    pub leaked_reservations: usize,
    /// Pool spectra still leased after drain (must be 0).
    pub leaked_spectra: usize,
    /// Largest single composition band, in bytes (0 when not composing).
    pub max_band_bytes: usize,
    /// End-to-end wall time.
    pub elapsed: Duration,
}

/// Why a sharded run failed. Even on failure the scheduler is drained
/// first, so the leak counters are always meaningful.
#[derive(Debug)]
pub enum ShardError {
    /// The shard plan was invalid (empty grid, zero shard dims).
    Plan(String),
    /// The scheduler refused a shard job (e.g. one shard's estimate
    /// alone exceeds the memory budget).
    Submit {
        /// Shard job name.
        name: String,
        /// The scheduler's refusal.
        error: SubmitError,
    },
    /// A shard job ended in a non-completed state.
    Shard {
        /// Shard job name.
        name: String,
        /// Its terminal status.
        status: JobStatus,
        /// Arbiter reservations alive after the post-failure drain.
        leaked_reservations: usize,
        /// Pool spectra leased after the post-failure drain.
        leaked_spectra: usize,
    },
    /// Seam registration failed (a boundary tile failed permanently
    /// under a non-partial policy).
    Stitch(StitchError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Plan(msg) => write!(f, "shard plan: {msg}"),
            ShardError::Submit { name, error } => write!(f, "submit {name}: {error}"),
            ShardError::Shard { name, status, .. } => write!(f, "shard {name} ended {status:?}"),
            ShardError::Stitch(e) => write!(f, "seam registration: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Stitches `source` shard-by-shard and, when composition is requested,
/// collects the banded composition into one full mosaic (convenient for
/// oracles and small runs; the bands themselves are still produced
/// through the bounded streaming path).
pub fn stitch_sharded(
    source: Arc<dyn TileSource>,
    config: &ShardConfig,
) -> Result<ShardOutcome, ShardError> {
    let mut collected: Option<(usize, Vec<u16>, usize)> = None; // (width, pixels, rows)
    let mut outcome = run_sharded(source, config, &mut |y0, band: Image<u16>| {
        let (w, pixels, rows) = collected.get_or_insert((band.width(), Vec::new(), 0));
        debug_assert_eq!(*w, band.width());
        debug_assert_eq!(*rows, y0);
        pixels.extend_from_slice(band.pixels());
        *rows += band.height();
    })?;
    if let Some((w, pixels, rows)) = collected {
        outcome.mosaic = Some(Image::from_vec(w, rows, pixels));
    }
    Ok(outcome)
}

/// Stitches `source` shard-by-shard, streaming composition bands to
/// `sink(y0, band)` top-to-bottom instead of materializing the mosaic —
/// the out-of-core path: peak memory stays flat in grid size. The sink
/// is only called when [`ShardConfig::compose`] is set.
pub fn stitch_sharded_streaming(
    source: Arc<dyn TileSource>,
    config: &ShardConfig,
    sink: &mut dyn FnMut(usize, Image<u16>),
) -> Result<ShardOutcome, ShardError> {
    run_sharded(source, config, sink)
}

/// Stitches `source` shard-by-shard, baking each composition band into
/// `canvas` (at `(0, y0)`, scale 0) instead of collecting images — the
/// out-of-core sink that leaves a readable pyramid behind: after the
/// run, `canvas.get_region(scale, …)` serves any window of the mosaic
/// at any scale, bit-identical to composing whole and downsampling.
/// Band images are not retained beyond their chunks, so peak memory
/// stays the banded path's. Requires [`ShardConfig::compose`] to be set
/// (otherwise no bands are produced and the canvas stays empty).
pub fn stitch_sharded_into_canvas(
    source: Arc<dyn TileSource>,
    config: &ShardConfig,
    canvas: &stitch_canvas::SharedCanvas,
) -> Result<ShardOutcome, ShardError> {
    run_sharded(source, config, &mut |y0, band| {
        canvas.bake_region((0, y0 as i64), &band);
    })
}

fn run_sharded(
    source: Arc<dyn TileSource>,
    config: &ShardConfig,
    sink: &mut dyn FnMut(usize, Image<u16>),
) -> Result<ShardOutcome, ShardError> {
    let t0 = Instant::now();
    let trace = &config.trace;
    let plan = ShardPlan::new(source.shape(), config.shard_rows, config.shard_cols)
        .map_err(ShardError::Plan)?;
    let shards = plan.shards();
    let sched = Scheduler::new(SchedulerConfig {
        workers: config.workers.max(1),
        memory_budget: config.memory_budget,
        max_pending: shards.len().max(4),
        device: None,
        trace: trace.clone(),
    });
    // audit + error helper: drain, read the arbiter, drop nothing early
    let audit = |sched: &Scheduler| {
        sched.drain(DrainPolicy::CancelAll);
        (
            sched.arbiter().high_water(),
            sched.arbiter().active_reservations(),
            sched.arbiter().leased_spectra(),
        )
    };

    // Pause → submit all → resume, so dispatch order is decided over the
    // full batch (and the chaos cancel lands deterministically while the
    // target is still queued).
    sched.pause();
    let mut handles = Vec::with_capacity(shards.len());
    for shard in &shards {
        let view: Arc<dyn TileSource> = Arc::new(SubgridSource::new(
            Arc::clone(&source),
            shard.row0,
            shard.col0,
            shard.shape,
        ));
        let job = StitchJob::over_source(shard.name(), view)
            .variant(config.variant)
            .threads(config.threads)
            .compose(false);
        match sched.submit_blocking(job) {
            Ok(handle) => {
                if config.cancel_shard == Some(shard.index) {
                    handle.cancel();
                }
                handles.push(handle);
            }
            Err(error) => {
                sched.resume();
                audit(&sched);
                return Err(ShardError::Submit {
                    name: shard.name(),
                    error,
                });
            }
        }
    }
    sched.resume();

    let mut results = Vec::with_capacity(shards.len());
    let mut first_bad: Option<(String, JobStatus)> = None;
    for (shard, handle) in shards.iter().zip(&handles) {
        let out = handle.wait();
        match (out.status, out.result) {
            (JobStatus::Completed, Some(result)) => results.push((*shard, result)),
            (status, _) => {
                if first_bad.is_none() {
                    first_bad = Some((shard.name(), status));
                }
            }
        }
    }
    if let Some((name, status)) = first_bad {
        let (_, leaked_reservations, leaked_spectra) = audit(&sched);
        return Err(ShardError::Shard {
            name,
            status,
            leaked_reservations,
            leaked_spectra,
        });
    }

    // Seam registration shares the scheduler's FFT plan cache.
    let planner = sched.arbiter().planner(PlanMode::Estimate);
    let seams = match register_seams(&*source, &plan, &planner, &config.policy, trace) {
        Ok(s) => s,
        Err(e) => {
            audit(&sched);
            return Err(ShardError::Stitch(e));
        }
    };

    // Merge, then the global solve.
    let mut merged = {
        let _span = trace.scope("shard/merge", "compute", "merge shard results");
        merge_results(&plan, &results, &seams)
    };
    let positions = {
        let _span = trace.scope("shard/merge", "compute", "global solve");
        config.optimizer.solve(&merged)
    };

    // Out-of-core composition: full-width bands, bounded by band_rows.
    let mut max_band_bytes = 0usize;
    if let Some(blend) = config.compose {
        let _span = trace.scope("shard/compose", "compute", "banded compose");
        let composer = Composer::new(positions.clone(), blend).with_trace(trace.clone());
        composer.compose_bands(&*source, config.band_rows, &mut |y0, band| {
            max_band_bytes =
                max_band_bytes.max(band.width() * band.height() * std::mem::size_of::<u16>());
            sink(y0, band);
        });
        trace.set_gauge_max("shard/max_band_bytes", max_band_bytes as f64);
    }

    let (high_water, leaked_reservations, leaked_spectra) = audit(&sched);
    merged.elapsed = t0.elapsed();
    Ok(ShardOutcome {
        result: merged,
        positions,
        mosaic: None,
        shard_count: shards.len(),
        seam_pairs: seams.displacements.len(),
        high_water,
        budget: config.memory_budget,
        leaked_reservations,
        leaked_spectra,
        max_band_bytes,
        elapsed: t0.elapsed(),
    })
}
