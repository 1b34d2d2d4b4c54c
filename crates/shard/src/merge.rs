//! Merging shard-local results into one full-grid solve.
//!
//! Two pieces:
//!
//! 1. [`register_seams`] — phase-1 registration of the pairs that cross
//!    shard boundaries, with the *same* correlator kernel and settings
//!    the in-shard stitchers use. PCIAM phase 1 is a pure function of
//!    the two tile images, so a seam displacement computed here is
//!    bit-identical to the one the unsharded run computes for the same
//!    pair. At most two tiles (and their spectra) are live at a time.
//! 2. [`merge_results`] — copies shard-local displacements into their
//!    full-grid slots and adds the seam displacements, reassembling the
//!    exact pair graph the unsharded run would have produced.
//!
//! The committed positions come from running the standard
//! [`GlobalOptimizer`](stitch_core::GlobalOptimizer) on the merged
//! full-grid graph, which is what makes them bit-identical to the
//! unsharded solve.

use std::sync::Arc;
use std::time::Duration;

use stitch_core::{
    Correlator, Displacement, FailurePolicy, FaultTracker, HealthReport, OpCounters, StitchError,
    StitchResult, TileSource, TileStatus, TransformKind,
};
use stitch_fft::Planner;
use stitch_trace::TraceHandle;

use crate::plan::{SeamPair, Shard, ShardPlan};

/// Everything [`register_seams`] produced.
pub struct SeamOutcome {
    /// Registered seam displacements (pairs with a failed endpoint are
    /// absent, mirroring how the in-shard stitchers void such pairs).
    pub displacements: Vec<(SeamPair, Displacement)>,
    /// Health of the boundary tiles read during the seam walk.
    pub health: HealthReport,
}

/// Registers every seam pair by loading its two tiles, transforming
/// them, and running the oriented PCIAM displacement — the identical
/// kernel path `SimpleCpuStitcher` uses, so results are bit-identical
/// to an unsharded run's for the same pairs. Peak memory is two tiles
/// plus two spectra regardless of grid size.
pub fn register_seams(
    source: &dyn TileSource,
    plan: &ShardPlan,
    planner: &Planner,
    policy: &FailurePolicy,
    trace: &TraceHandle,
) -> Result<SeamOutcome, StitchError> {
    let (w, h) = source.tile_dims();
    let counters = OpCounters::new_shared();
    let mut ctx = Correlator::new(TransformKind::Complex, planner, w, h, Arc::clone(&counters));
    let tracker = FaultTracker::new(plan.grid);
    let mut displacements = Vec::new();
    let _span = trace.scope("shard/merge", "compute", "register seams");
    for pair in plan.seam_pairs() {
        // a tile that already failed permanently voids all its pairs;
        // don't hammer it with another retry cycle per pair
        if tracker.is_failed(pair.a) || tracker.is_failed(pair.b) {
            continue;
        }
        let r0 = trace.now_ns();
        let ia = tracker.load(source, pair.a, &policy.retry);
        let ib = tracker.load(source, pair.b, &policy.retry);
        trace.record(
            "shard/merge",
            "io",
            format!(
                "read seam r{}c{}-r{}c{}",
                pair.a.row, pair.a.col, pair.b.row, pair.b.col
            ),
            r0,
            trace.now_ns(),
        );
        let (Some(ia), Some(ib)) = (ia, ib) else {
            continue;
        };
        counters.count_read();
        counters.count_read();
        let c0 = trace.now_ns();
        let fa = ctx.forward_fft(&ia);
        let fb = ctx.forward_fft(&ib);
        let d = ctx.displacement_oriented(&fa, &fb, &ia, &ib, Some(pair.kind));
        trace.record(
            "shard/merge",
            "compute",
            format!(
                "seam ccf r{}c{}-r{}c{}",
                pair.a.row, pair.a.col, pair.b.row, pair.b.col
            ),
            c0,
            trace.now_ns(),
        );
        displacements.push((pair, d));
    }
    let health = tracker.finish(policy)?;
    Ok(SeamOutcome {
        displacements,
        health,
    })
}

/// Reassembles the full-grid [`StitchResult`] from shard-local results
/// (indexed like `plan.shards()`) and the registered seam
/// displacements. Because each shard saw the identical tile images the
/// full grid holds and seam pairs were registered with the identical
/// kernel, the merged pair graph is bit-identical to the unsharded
/// run's. Ops and retries are summed; `elapsed` is left at zero for the
/// driver to stamp with its own wall clock.
pub fn merge_results(
    plan: &ShardPlan,
    shards: &[(Shard, StitchResult)],
    seams: &SeamOutcome,
) -> StitchResult {
    let mut merged = StitchResult::empty(plan.grid);
    let mut peak_live = 0usize;
    for (shard, local) in shards {
        for local_id in shard.shape.ids() {
            let g = plan.grid.index(shard.to_global(local_id));
            let l = shard.shape.index(local_id);
            if local.west[l].is_some() {
                merged.west[g] = local.west[l];
            }
            if local.north[l].is_some() {
                merged.north[g] = local.north[l];
            }
            merge_tile_status(
                &mut merged.health.tiles[g],
                &local.health.tiles[shard.shape.index(local_id)],
            );
        }
        merged.ops.reads += local.ops.reads;
        merged.ops.forward_ffts += local.ops.forward_ffts;
        merged.ops.elementwise_mults += local.ops.elementwise_mults;
        merged.ops.inverse_ffts += local.ops.inverse_ffts;
        merged.ops.max_reductions += local.ops.max_reductions;
        merged.ops.ccf_groups += local.ops.ccf_groups;
        merged.health.total_retries += local.health.total_retries;
        peak_live = peak_live.max(local.peak_live_tiles);
    }
    for (pair, d) in &seams.displacements {
        let slot = plan.grid.index(pair.b);
        match pair.kind {
            stitch_core::PairKind::West => merged.west[slot] = Some(*d),
            stitch_core::PairKind::North => merged.north[slot] = Some(*d),
        }
    }
    for id in plan.grid.ids() {
        merge_tile_status(
            &mut merged.health.tiles[plan.grid.index(id)],
            &seams.health.tiles[plan.grid.index(id)],
        );
    }
    merged.health.total_retries += seams.health.total_retries;
    // the seam walk holds at most 2 tiles live on top of the per-shard peak
    merged.peak_live_tiles = peak_live.max(2);
    merged.elapsed = Duration::ZERO;
    merged
}

/// Combines two observations of the same tile (a shard job's and the
/// seam walk's): `Failed` dominates, then `Recovered` (attempts summed),
/// then `Ok`.
fn merge_tile_status(into: &mut TileStatus, other: &TileStatus) {
    match (&*into, other) {
        (TileStatus::Failed { .. }, _) => {}
        (_, TileStatus::Failed { error }) => {
            *into = TileStatus::Failed {
                error: error.clone(),
            };
        }
        (TileStatus::Recovered { attempts: a }, TileStatus::Recovered { attempts: b }) => {
            *into = TileStatus::Recovered { attempts: a + b };
        }
        (TileStatus::Ok, TileStatus::Recovered { attempts }) => {
            *into = TileStatus::Recovered {
                attempts: *attempts,
            };
        }
        (_, TileStatus::Ok) => {}
    }
}
