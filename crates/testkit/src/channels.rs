//! Multi-channel / z-stack conformance: the replay bit-identity oracle
//! and the flat-field registration-accuracy battery.
//!
//! Two claims are machine-checked here:
//!
//! 1. **Replay bit-identity** — a multi-channel run registers *once* on
//!    the reference channel and replays the solved frame everywhere, so
//!    every channel's mosaic must be composed with positions
//!    bit-identical to a solo run over the reference source, and the
//!    scheduler-backed batch driver must reproduce the sequential
//!    driver's mosaics bit-for-bit.
//! 2. **Correction helps where it should** — radial vignetting is
//!    tile-fixed, so uncorrected it correlates between overlapping tiles
//!    at zero displacement and drags phase-correlation peaks off the
//!    true offset. Sweeping falloff strength on ground-truth plates,
//!    flat-field-corrected registration must never be less accurate than
//!    uncorrected, and must be *strictly* more accurate once the falloff
//!    passes [`ChannelReport::improvement_threshold`].
//!
//! The whole battery is pure in `seed`: the same seed always produces
//! the same report digest.

use std::sync::Arc;

use stitch_core::{
    run_channel_plan, Blend, ChannelPlan, ChannelSession, Composer, FailurePolicy, GlobalOptimizer,
    SimpleCpuStitcher, Stitcher, TruthVector, ZMode,
};
use stitch_image::{Image, MultiChannelPlate, MultiScanConfig, ScanConfig, SceneParams};
use stitch_sched::{run_channel_batch, ChannelBatchOptions, JobStatus, Scheduler, SchedulerConfig};

use stitch_core::MultiSyntheticSource;

use crate::{fnv_fold, FNV_OFFSET};

/// One replay-identity or accuracy-ordering violation.
#[derive(Clone, Debug)]
pub struct ChannelMismatch {
    /// Which case disagreed.
    pub label: String,
    /// What disagreed and how.
    pub detail: String,
}

/// One point of the corrected-vs-uncorrected accuracy sweep.
#[derive(Clone, Debug)]
pub struct AccuracyPoint {
    /// True vignetting falloff of the level's plates.
    pub vignette: f64,
    /// Displacement-pair errors (vs ground truth, ±1 px tolerance)
    /// registering the raw tiles, summed over the level's plates.
    pub uncorrected_errors: usize,
    /// The same count registering flat-field-corrected tiles.
    pub corrected_errors: usize,
    /// Mean falloff the estimator recovered from the tile stacks (0 when
    /// every fit snapped to the identity).
    pub estimated_falloff: f64,
    /// Displacement pairs scored across the level's plates (the
    /// denominator for the error counts).
    pub pairs: usize,
}

/// What [`run_channel_differential`] observed.
#[derive(Clone, Debug)]
pub struct ChannelReport {
    /// Replay-identity cases run.
    pub cases: usize,
    /// Violations (empty on a clean run).
    pub mismatches: Vec<ChannelMismatch>,
    /// The corrected-vs-uncorrected sweep, ascending in falloff.
    pub accuracy: Vec<AccuracyPoint>,
    /// Falloff beyond which correction must be *strictly* better.
    pub improvement_threshold: f64,
    /// FNV digest of every case's positions, mosaics, and accuracy
    /// counts — pure in the seed.
    pub digest: u64,
}

impl ChannelReport {
    /// True when every case was bit-identical and the accuracy ordering
    /// held at every sweep point.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

fn digest_mosaic(mut h: u64, m: &Image<u16>) -> u64 {
    for px in m.pixels() {
        h = fnv_fold(h, &px.to_le_bytes());
    }
    h
}

/// Ground-truth displacement vectors of a multi-channel plate, in the
/// layout `StitchResult::count_errors` expects. Positions are shared by
/// every channel and plane, so one pair of vectors covers them all.
pub fn multi_truth_vectors(plate: &MultiChannelPlate) -> (TruthVector, TruthVector) {
    let rows = plate.base().grid_rows;
    let cols = plate.base().grid_cols;
    let mut west = vec![None; rows * cols];
    let mut north = vec![None; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let (x1, y1) = plate.true_position(r, c);
            if c > 0 {
                let (x0, y0) = plate.true_position(r, c - 1);
                west[r * cols + c] = Some((x1 - x0, y1 - y0));
            }
            if r > 0 {
                let (x0, y0) = plate.true_position(r - 1, c);
                north[r * cols + c] = Some((x1 - x0, y1 - y0));
            }
        }
    }
    (west, north)
}

/// The replay-identity case list: a stacked run, a max-z run, and a
/// corrected run on a strongly vignetted plate.
fn replay_cases(seed: u64) -> Vec<(String, MultiScanConfig, ChannelPlan)> {
    let base = |case_seed: u64, vignette: f64| ScanConfig {
        grid_rows: 2,
        grid_cols: 3,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.2,
        vignette,
        seed: case_seed ^ (seed & 0xffff),
        ..ScanConfig::default()
    };
    vec![
        (
            "stack 2ch x 2z".into(),
            MultiScanConfig::for_channels(base(901, 0.04), 2, 2),
            ChannelPlan::default(),
        ),
        (
            "maxz 3ch x 3z".into(),
            MultiScanConfig::for_channels(base(902, 0.04), 3, 3),
            ChannelPlan {
                z_mode: ZMode::MaxProject,
                reference_channel: 1,
                ..ChannelPlan::default()
            },
        ),
        (
            "corrected stack 2ch x 2z, vignette 0.5".into(),
            MultiScanConfig::for_channels(base(903, 0.5), 2, 2),
            ChannelPlan {
                correct_illumination: true,
                ..ChannelPlan::default()
            },
        ),
    ]
}

/// The accuracy sweep's plate: bright background, modest plate-fixed
/// texture, sparse colonies. A strong vignette over a bright background
/// is a large tile-fixed signal, while the weak texture gives phase
/// correlation just enough plate-fixed structure to recover the true
/// offset once the field is divided out — the regime where uncorrected
/// registration actually fails and correction must rescue it.
fn sweep_config(seed: u64, plate: u64, vignette: f64) -> MultiScanConfig {
    let base = ScanConfig {
        grid_rows: 3,
        grid_cols: 3,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.25,
        noise_sigma: 40.0,
        vignette,
        seed: 0x7a11 ^ (seed & 0xffff) ^ (plate * 131),
        ..ScanConfig::default()
    };
    let mut cfg = MultiScanConfig::for_channels(base, 1, 1);
    cfg.channels[0].scene = SceneParams {
        colony_count: 3,
        texture_amplitude: 60.0,
        background: 10_000.0,
        ..cfg.channels[0].scene.clone()
    };
    cfg
}

/// Falloff levels the accuracy battery sweeps, and the threshold beyond
/// which correction must strictly improve registration. Error counts are
/// aggregated over [`SWEEP_PLATES`] independent plates per level, so a
/// single borderline pair cannot flip the ordering.
const SWEEP_LEVELS: [f64; 5] = [0.0, 0.15, 0.3, 0.45, 0.6];
const SWEEP_PLATES: u64 = 3;
const IMPROVEMENT_THRESHOLD: f64 = 0.45;

/// Runs the whole battery. Pure in `seed`: the same seed always yields
/// the same report digest.
pub fn run_channel_differential(seed: u64) -> ChannelReport {
    let mut mismatches = Vec::new();
    let mut digest = FNV_OFFSET;
    let stitcher = SimpleCpuStitcher::default();

    // ------------------------------------------------------- replay identity
    let cases = replay_cases(seed);
    for (label, cfg, plan) in &cases {
        let plate = MultiChannelPlate::generate(cfg.clone());
        let source = Arc::new(MultiSyntheticSource::new(plate));
        let session = match ChannelSession::new(source, plan.clone()) {
            Ok(s) => s,
            Err(e) => {
                mismatches.push(ChannelMismatch {
                    label: label.clone(),
                    detail: format!("session setup failed: {e}"),
                });
                continue;
            }
        };

        // The reference-channel solo run the whole batch must agree with.
        let reg_source = session.registration_source();
        let solo = stitcher
            .try_compute_displacements(reg_source.as_ref(), &FailurePolicy::default())
            .expect("solo registration on a clean synthetic plate");
        let solo_positions = GlobalOptimizer::default().solve(&solo);

        let run = match run_channel_plan(&session, &stitcher, Blend::Overlay) {
            Ok(r) => r,
            Err(e) => {
                mismatches.push(ChannelMismatch {
                    label: label.clone(),
                    detail: format!("sequential run failed: {e}"),
                });
                continue;
            }
        };
        if run.positions != solo_positions {
            mismatches.push(ChannelMismatch {
                label: label.clone(),
                detail: "run positions differ from reference-channel solo run".into(),
            });
        }
        for (unit, mosaic) in &run.mosaics {
            let solo_mosaic = Composer::new(solo_positions.clone(), Blend::Overlay)
                .compose(session.unit_source(*unit).as_ref());
            if mosaic.pixels() != solo_mosaic.pixels() {
                mismatches.push(ChannelMismatch {
                    label: label.clone(),
                    detail: format!("unit {} mosaic differs from solo compose", unit.label()),
                });
            }
        }

        // Scheduler-backed batch: same frame, same pixels.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        });
        match run_channel_batch(&sched, "diff", &session, &ChannelBatchOptions::default()) {
            Ok(batch) => {
                if batch.positions != run.positions {
                    mismatches.push(ChannelMismatch {
                        label: label.clone(),
                        detail: "scheduler batch solved a different frame".into(),
                    });
                }
                if batch.units.len() != run.mosaics.len() {
                    mismatches.push(ChannelMismatch {
                        label: label.clone(),
                        detail: format!(
                            "scheduler batch produced {} units, sequential {}",
                            batch.units.len(),
                            run.mosaics.len()
                        ),
                    });
                } else {
                    for ((unit, out), (seq_unit, seq_mosaic)) in
                        batch.units.iter().zip(run.mosaics.iter())
                    {
                        if unit != seq_unit || out.status != JobStatus::Completed {
                            mismatches.push(ChannelMismatch {
                                label: label.clone(),
                                detail: format!("unit {} ended {:?}", unit.label(), out.status),
                            });
                            continue;
                        }
                        if out.mosaic.as_ref().map(Image::pixels) != Some(seq_mosaic.pixels()) {
                            mismatches.push(ChannelMismatch {
                                label: label.clone(),
                                detail: format!(
                                    "scheduler unit {} mosaic diverged from sequential",
                                    unit.label()
                                ),
                            });
                        }
                    }
                }
            }
            Err(e) => mismatches.push(ChannelMismatch {
                label: label.clone(),
                detail: format!("scheduler batch failed: {e}"),
            }),
        }
        sched.join();

        for p in &run.positions.positions {
            digest = fnv_fold(digest, &p.0.to_le_bytes());
            digest = fnv_fold(digest, &p.1.to_le_bytes());
        }
        for (_, m) in &run.mosaics {
            digest = digest_mosaic(digest, m);
        }
    }

    // ------------------------------------------- corrected-vs-uncorrected
    let mut accuracy = Vec::with_capacity(SWEEP_LEVELS.len());
    for &vignette in &SWEEP_LEVELS {
        let mut errors = [0usize; 2];
        let mut pairs = 0usize;
        let mut estimated_falloff = 0.0;
        for plate_idx in 0..SWEEP_PLATES {
            let cfg = sweep_config(seed, plate_idx, vignette);
            let plate = MultiChannelPlate::generate(cfg);
            let (tw, tn) = multi_truth_vectors(&plate);
            pairs += tw.iter().chain(tn.iter()).filter(|d| d.is_some()).count();
            let source: Arc<MultiSyntheticSource> = Arc::new(MultiSyntheticSource::new(plate));

            for (i, correct) in [false, true].into_iter().enumerate() {
                let session = ChannelSession::new(
                    Arc::clone(&source) as Arc<_>,
                    ChannelPlan {
                        correct_illumination: correct,
                        ..ChannelPlan::default()
                    },
                )
                .expect("valid plan");
                if correct {
                    estimated_falloff += session.flat(0).falloff() / SWEEP_PLATES as f64;
                }
                let result = stitcher
                    .try_compute_displacements(
                        session.registration_source().as_ref(),
                        &FailurePolicy::default(),
                    )
                    .expect("registration on a clean synthetic plate");
                errors[i] += result.count_errors(&tw, &tn, 1);
            }
        }
        let point = AccuracyPoint {
            vignette,
            uncorrected_errors: errors[0],
            corrected_errors: errors[1],
            estimated_falloff,
            pairs,
        };
        if point.corrected_errors > point.uncorrected_errors {
            mismatches.push(ChannelMismatch {
                label: format!("sweep vignette {vignette}"),
                detail: format!(
                    "correction made registration worse: {} -> {} errors",
                    point.uncorrected_errors, point.corrected_errors
                ),
            });
        }
        if vignette >= IMPROVEMENT_THRESHOLD && point.corrected_errors >= point.uncorrected_errors {
            mismatches.push(ChannelMismatch {
                label: format!("sweep vignette {vignette}"),
                detail: format!(
                    "no strict improvement past threshold: uncorrected {} vs corrected {} \
                     (of {} pairs)",
                    point.uncorrected_errors, point.corrected_errors, point.pairs
                ),
            });
        }
        digest = fnv_fold(digest, &vignette.to_bits().to_le_bytes());
        digest = fnv_fold(digest, &(point.uncorrected_errors as u64).to_le_bytes());
        digest = fnv_fold(digest, &(point.corrected_errors as u64).to_le_bytes());
        accuracy.push(point);
    }

    ChannelReport {
        cases: cases.len(),
        mismatches,
        accuracy,
        improvement_threshold: IMPROVEMENT_THRESHOLD,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_is_clean_and_pure_in_seed() {
        let a = run_channel_differential(5);
        for m in &a.mismatches {
            eprintln!("MISMATCH [{}] {}", m.label, m.detail);
        }
        for p in &a.accuracy {
            eprintln!(
                "vignette {:.2}: uncorrected {} corrected {} (est falloff {:.3}, {} pairs)",
                p.vignette, p.uncorrected_errors, p.corrected_errors, p.estimated_falloff, p.pairs
            );
        }
        assert!(a.is_clean());
        let b = run_channel_differential(5);
        assert_eq!(a.digest, b.digest, "report must be pure in the seed");
    }
}
