//! `stitch shard`: out-of-core stitching, shard by shard under a fixed
//! memory budget, composed in bands (optionally through the pyramid
//! canvas for a downsampled preview).

use std::sync::Arc;

use stitch_canvas::{CanvasConfig, SharedCanvas};
use stitch_core::prelude::*;
use stitch_image::SyntheticPlate;
use stitch_shard::{stitch_sharded, stitch_sharded_into_canvas, ShardConfig};

use super::sinks::{trace_handle, write_image, write_positions, write_trace};
use super::{Command, Failure};

/// Runs a parsed [`Command::Shard`].
pub(super) fn run(cmd: Command) -> Result<(), Failure> {
    let Command::Shard {
        dataset,
        config,
        shard_rows,
        shard_cols,
        budget_mb,
        workers,
        implementation,
        threads,
        blend,
        out,
        positions_out,
        band_rows,
        preview_out,
        preview_scale,
        trace_out,
    } = cmd
    else {
        unreachable!("shard::run takes Command::Shard")
    };
    if implementation.needs_device() {
        return Err(Failure::input(
            "shard runs CPU variants only (the shard scheduler shares no GPU)",
        ));
    }
    let source: Arc<dyn TileSource> = match &dataset {
        Some(dir) => Arc::new(
            DirSource::open(dir)
                .map_err(|e| Failure::input(format!("cannot open dataset: {e}")))?,
        ),
        None => Arc::new(SyntheticSource::new(SyntheticPlate::generate(config))),
    };
    let trace = trace_handle(trace_out.is_some());
    let shard_config = ShardConfig {
        shard_rows,
        shard_cols,
        workers,
        memory_budget: budget_mb << 20,
        variant: implementation,
        threads,
        compose: (out.is_some() || preview_out.is_some()).then_some(blend),
        band_rows,
        trace: trace.clone(),
        ..ShardConfig::default()
    };
    let shape = source.shape();
    let (tile_w, tile_h) = source.tile_dims();
    println!(
        "sharded stitch: {}x{} grid in {}x{}-tile shards, {} worker(s), {budget_mb} MB budget",
        shape.rows, shape.cols, shard_rows, shard_cols, workers
    );
    // --preview routes the banded composition through the chunked
    // pyramid canvas (still out-of-core: bands are baked and dropped,
    // only live chunks stay resident).
    let canvas = preview_out
        .as_ref()
        .map(|_| SharedCanvas::new(CanvasConfig::default()));
    let outcome = match &canvas {
        Some(canvas) => stitch_sharded_into_canvas(source, &shard_config, canvas),
        None => stitch_sharded(source, &shard_config),
    }
    .map_err(|e| Failure::aborted(e.to_string()))?;
    println!(
        "{} shard(s), {} seam pair(s) in {:.2?}; peak arbiter memory {:.1} MB of {budget_mb} MB",
        outcome.shard_count,
        outcome.seam_pairs,
        outcome.elapsed,
        outcome.high_water as f64 / (1 << 20) as f64,
    );
    if let Some(path) = &positions_out {
        write_positions(path, &outcome.positions)?;
        println!("positions -> {}", path.display());
    }
    let (mw, mh) = outcome.positions.mosaic_dims(tile_w, tile_h);
    // In canvas mode the driver never collects the mosaic; a requested
    // --out is materialized from the canvas's scale-0 plane instead
    // (bit-identical to the collected path).
    let canvas_mosaic = match (&canvas, &out) {
        (Some(canvas), Some(_)) => Some(canvas.get_region(0, 0, 0, mw, mh)),
        _ => None,
    };
    if let (Some(path), Some(mosaic)) = (&out, canvas_mosaic.as_ref().or(outcome.mosaic.as_ref())) {
        write_image(path, mosaic, "mosaic")?;
        println!(
            "{}x{} mosaic (banded, {} rows/band) -> {}",
            mosaic.width(),
            mosaic.height(),
            band_rows,
            path.display()
        );
    }
    if let (Some(path), Some(canvas)) = (&preview_out, &canvas) {
        let scale = preview_scale.min(canvas.max_scale());
        let (pw, ph) = ((mw >> scale).max(1), (mh >> scale).max(1));
        let overview = canvas.get_region(scale, 0, 0, pw, ph);
        write_image(path, &overview, "preview")?;
        println!(
            "scale-{scale} overview {pw}x{ph} ({} live canvas chunks) -> {}",
            canvas.stats().live_chunks,
            path.display()
        );
    }
    if let Some(path) = &trace_out {
        write_trace(path, &trace)?;
        println!("trace -> {}", path.display());
    }
    Ok(())
}
