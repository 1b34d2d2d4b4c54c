//! Sharded-vs-unsharded conformance: the differential oracle and the
//! seeded stress harness for `stitch-shard`.
//!
//! The oracle's claim is the tentpole guarantee of the sharded driver:
//! partitioning the grid into shards, stitching each as a scheduler
//! job, registering the seams, and re-solving must produce **bit
//! identical** phase-1 displacements, phase-2 positions, and composed
//! mosaic pixels to a plain unsharded run over the same source — for
//! every shard geometry, including the degenerate ones (1×1, single
//! row/column, uneven remainders) and Bluestein-path tile sizes.

use std::sync::Arc;

use stitch_core::{
    Blend, Composer, FailurePolicy, FaultSpec, FaultySource, GlobalOptimizer, SimpleCpuStitcher,
    Stitcher, SyntheticSource, TileId, TileSource,
};
use stitch_image::SyntheticPlate;
use stitch_sched::{JobStatus, JobVariant, StitchJob};
use stitch_shard::{stitch_sharded, ShardConfig, ShardError, ShardPlan};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cases::SweepCase;
use crate::sched_stress::Displacement2;
use crate::{fnv_fold, FNV_OFFSET};

/// One oracle case: a ground-truth sweep case plus a shard geometry.
#[derive(Clone, Debug)]
pub struct ShardCaseSpec {
    /// The plate to stitch.
    pub case: SweepCase,
    /// Max tile rows per shard.
    pub shard_rows: usize,
    /// Max tile cols per shard.
    pub shard_cols: usize,
}

impl ShardCaseSpec {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        format!(
            "{} in {}x{}-tile shards",
            self.case.label(),
            self.shard_rows,
            self.shard_cols
        )
    }
}

/// One sharded-vs-unsharded disagreement.
#[derive(Clone, Debug)]
pub struct ShardMismatch {
    /// Which case disagreed.
    pub label: String,
    /// What disagreed and how.
    pub detail: String,
}

/// What [`run_shard_differential`] observed.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Cases run.
    pub cases: usize,
    /// Disagreements (empty on a clean run).
    pub mismatches: Vec<ShardMismatch>,
    /// FNV digest of every case's positions + mosaic + displacement
    /// bits — pure in the seed, for determinism assertions.
    pub digest: u64,
}

impl ShardReport {
    /// True when every case was bit-identical.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The shard-geometry sweep: degenerate single-tile shards, single-row
/// and single-column shards, uneven remainder shards, and a prime
/// (Bluestein) tile size. Scene seeds are perturbed by `seed` so
/// different seeds stitch different plates.
pub fn shard_cases(seed: u64) -> Vec<ShardCaseSpec> {
    let case = |rows, cols, tw, th, overlap, case_seed: u64| SweepCase {
        rows,
        cols,
        tile_width: tw,
        tile_height: th,
        overlap,
        noise_sigma: 40.0,
        seed: case_seed ^ (seed & 0xffff),
    };
    vec![
        // 1x1 shards: every pair is a seam pair
        ShardCaseSpec {
            case: case(2, 2, 64, 48, 0.25, 801),
            shard_rows: 1,
            shard_cols: 1,
        },
        // single-row shards (1xN): all seams vertical
        ShardCaseSpec {
            case: case(3, 3, 64, 48, 0.25, 802),
            shard_rows: 1,
            shard_cols: 3,
        },
        // single-column shards (Nx1): all seams horizontal
        ShardCaseSpec {
            case: case(3, 3, 64, 48, 0.25, 803),
            shard_rows: 3,
            shard_cols: 1,
        },
        // uneven remainder shards: 3x4 grid in 2x3 shards
        ShardCaseSpec {
            case: case(3, 4, 64, 48, 0.25, 804),
            shard_rows: 2,
            shard_cols: 3,
        },
        // prime tile dims: shard-local and seam registrations both take
        // the Bluestein path
        ShardCaseSpec {
            case: case(2, 3, 61, 47, 0.25, 805),
            shard_rows: 2,
            shard_cols: 2,
        },
    ]
}

fn digest_displacements(h: u64, v: &[Option<Displacement2>]) -> u64 {
    v.iter().fold(h, |h, d| match d {
        Some(d) => {
            let h = fnv_fold(h, &d.x.to_le_bytes());
            let h = fnv_fold(h, &d.y.to_le_bytes());
            fnv_fold(h, &d.correlation_bits.to_le_bytes())
        }
        None => fnv_fold(h, &[0xFF]),
    })
}

fn to_bits(v: &[Option<stitch_core::Displacement>]) -> Vec<Option<Displacement2>> {
    v.iter().map(|d| d.map(Displacement2::from)).collect()
}

/// Runs the sharded-vs-unsharded differential over [`shard_cases`].
/// Pure in `seed`: the same seed always yields the same report digest.
pub fn run_shard_differential(seed: u64) -> ShardReport {
    let specs = shard_cases(seed);
    let mut mismatches = Vec::new();
    let mut digest = FNV_OFFSET;
    for spec in &specs {
        let label = spec.label();
        let source: Arc<dyn TileSource> = Arc::new(spec.case.source());

        // unsharded baseline: the sequential reference variant
        let baseline = SimpleCpuStitcher::default()
            .try_compute_displacements(&*source, &FailurePolicy::default())
            .expect("baseline stitch on a clean synthetic plate");
        let base_positions = GlobalOptimizer::default().solve(&baseline);
        let base_mosaic = Composer::new(base_positions.clone(), Blend::Overlay).compose(&*source);

        // sharded run, banded composition (odd band height on purpose)
        let config = ShardConfig {
            shard_rows: spec.shard_rows,
            shard_cols: spec.shard_cols,
            compose: Some(Blend::Overlay),
            band_rows: 13,
            ..ShardConfig::default()
        };
        let sharded = match stitch_sharded(Arc::clone(&source), &config) {
            Ok(s) => s,
            Err(e) => {
                mismatches.push(ShardMismatch {
                    label,
                    detail: format!("sharded run failed: {e}"),
                });
                continue;
            }
        };

        let (bw, bn) = (to_bits(&baseline.west), to_bits(&baseline.north));
        let (sw, sn) = (
            to_bits(&sharded.result.west),
            to_bits(&sharded.result.north),
        );
        if bw != sw || bn != sn {
            let diff = bw
                .iter()
                .zip(&sw)
                .chain(bn.iter().zip(&sn))
                .filter(|(a, b)| a != b)
                .count();
            mismatches.push(ShardMismatch {
                label: label.clone(),
                detail: format!("{diff} displacement slots differ"),
            });
        }
        if base_positions != sharded.positions {
            mismatches.push(ShardMismatch {
                label: label.clone(),
                detail: "global positions differ".to_string(),
            });
        }
        match &sharded.mosaic {
            Some(m) if m.pixels() == base_mosaic.pixels() => {}
            Some(m) => mismatches.push(ShardMismatch {
                label: label.clone(),
                detail: format!(
                    "mosaic differs ({}x{} sharded vs {}x{} baseline)",
                    m.width(),
                    m.height(),
                    base_mosaic.width(),
                    base_mosaic.height()
                ),
            }),
            None => mismatches.push(ShardMismatch {
                label: label.clone(),
                detail: "sharded run produced no mosaic".to_string(),
            }),
        }
        if sharded.leaked_reservations != 0 || sharded.leaked_spectra != 0 {
            mismatches.push(ShardMismatch {
                label: label.clone(),
                detail: format!(
                    "leaks: {} reservations, {} spectra",
                    sharded.leaked_reservations, sharded.leaked_spectra
                ),
            });
        }

        digest = digest_displacements(digest, &sw);
        digest = digest_displacements(digest, &sn);
        for p in &sharded.positions.positions {
            digest = fnv_fold(digest, &p.0.to_le_bytes());
            digest = fnv_fold(digest, &p.1.to_le_bytes());
        }
        if let Some(m) = &sharded.mosaic {
            for px in m.pixels() {
                digest = fnv_fold(digest, &px.to_le_bytes());
            }
        }
    }
    ShardReport {
        cases: specs.len(),
        mismatches,
        digest,
    }
}

/// What one stress iteration was set up to do.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Scenario {
    Clean,
    CancelShard(usize),
    CorruptBoundaryTile(TileId),
    TransientFaults,
}

/// What [`run_shard_stress`] observed across its iterations.
#[derive(Clone, Debug)]
pub struct ShardStressOutcome {
    /// The driving seed.
    pub seed: u64,
    /// Iterations run.
    pub iterations: usize,
    /// One deterministic fate string per iteration.
    pub fates: Vec<String>,
    /// FNV digest over fates and result digests — pure in `seed`.
    pub digest: u64,
    /// Arbiter reservations leaked across all iterations (must be 0,
    /// including after cancelled and failed shards).
    pub leaked_reservations: usize,
    /// Pool spectra leaked across all iterations (must be 0).
    pub leaked_spectra: usize,
    /// True when every iteration's arbiter high-water stayed within its
    /// memory budget.
    pub high_water_ok: bool,
}

impl PartialEq for ShardStressOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.fates == other.fates && self.digest == other.digest
    }
}

impl ShardStressOutcome {
    /// All resource invariants in one check.
    pub fn resources_clean(&self) -> bool {
        self.leaked_reservations == 0 && self.leaked_spectra == 0 && self.high_water_ok
    }
}

/// Runs a seeded batch of randomized sharded runs: random grid and
/// shard geometry (including degenerate), random memory budgets down to
/// a single shard's footprint, fault injection on boundary tiles,
/// transient-fault storms, and mid-run shard cancellation. The fates
/// and digest are pure in `seed`; leak counters must come back zero.
pub fn run_shard_stress(seed: u64) -> ShardStressOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ad3);
    run_shard_stress_inner(seed, &mut rng)
}

fn run_shard_stress_inner(seed: u64, rng: &mut StdRng) -> ShardStressOutcome {
    let iterations = 5usize;
    let mut fates = Vec::with_capacity(iterations);
    let mut digest = FNV_OFFSET;
    let mut leaked_reservations = 0usize;
    let mut leaked_spectra = 0usize;
    let mut high_water_ok = true;

    for i in 0..iterations {
        let rows = rng.gen_range(2usize..=4);
        let cols = rng.gen_range(2usize..=4);
        let (tw, th) = [(32, 24), (40, 32), (48, 36)][rng.gen_range(0usize..3)];
        let shard_rows = rng.gen_range(1usize..=rows);
        let shard_cols = rng.gen_range(1usize..=cols);
        let scan = stitch_image::ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: tw,
            tile_height: th,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: seed ^ (0x9e37 + i as u64),
        };
        let plate = SyntheticPlate::generate(scan.clone());
        let plan = ShardPlan::new(
            stitch_core::GridShape::new(rows, cols),
            shard_rows,
            shard_cols,
        )
        .expect("non-empty plan");
        let seams = plan.seam_pairs();

        // budget: 1–3× the largest shard's admission estimate, so some
        // iterations force shards to queue behind the arbiter
        let max_shard = plan
            .shards()
            .into_iter()
            .max_by_key(|s| s.shape.tiles())
            .expect("at least one shard");
        let est = StitchJob::new(
            "estimate",
            stitch_image::ScanConfig::for_grid(
                max_shard.shape.rows,
                max_shard.shape.cols,
                tw,
                th,
                0.25,
                0,
            ),
        )
        .estimated_bytes();
        let budget = est * rng.gen_range(1usize..=3);

        let scenario = match rng.gen_range(0u32..4) {
            0 => Scenario::Clean,
            1 => Scenario::CancelShard(rng.gen_range(0usize..plan.shard_count())),
            2 => {
                // corrupt a boundary tile when the plan has seams, else
                // the origin tile
                let tile = if seams.is_empty() {
                    TileId::new(0, 0)
                } else {
                    seams[rng.gen_range(0usize..seams.len())].a
                };
                Scenario::CorruptBoundaryTile(tile)
            }
            _ => Scenario::TransientFaults,
        };

        let spec = match &scenario {
            Scenario::CorruptBoundaryTile(tile) => Some(FaultSpec {
                seed: seed ^ i as u64,
                transient_rate: 0.0,
                corrupt: vec![*tile],
                latency: std::time::Duration::ZERO,
            }),
            Scenario::TransientFaults => Some(FaultSpec {
                seed: seed ^ i as u64,
                transient_rate: 0.12,
                corrupt: Vec::new(),
                latency: std::time::Duration::ZERO,
            }),
            _ => None,
        };
        let source: Arc<dyn TileSource> = match spec {
            Some(spec) => Arc::new(FaultySource::new(SyntheticSource::new(plate), spec)),
            None => Arc::new(SyntheticSource::new(plate)),
        };

        let compose = rng.gen_range(0u32..2) == 0;
        let config = ShardConfig {
            shard_rows,
            shard_cols,
            workers: rng.gen_range(1usize..=2),
            memory_budget: budget,
            variant: JobVariant::SimpleCpu,
            threads: 1,
            compose: compose.then_some(Blend::Overlay),
            band_rows: [3usize, 16, 64][rng.gen_range(0usize..3)],
            cancel_shard: match scenario {
                Scenario::CancelShard(k) => Some(k),
                _ => None,
            },
            ..ShardConfig::default()
        };

        let fate = match stitch_sharded(Arc::clone(&source), &config) {
            Ok(out) => {
                leaked_reservations += out.leaked_reservations;
                leaked_spectra += out.leaked_spectra;
                high_water_ok &= out.high_water <= config.memory_budget;
                for p in &out.positions.positions {
                    digest = fnv_fold(digest, &p.0.to_le_bytes());
                    digest = fnv_fold(digest, &p.1.to_le_bytes());
                }
                if let Some(m) = &out.mosaic {
                    for px in m.pixels() {
                        digest = fnv_fold(digest, &px.to_le_bytes());
                    }
                }
                format!(
                    "ok shards={} seams={} retries={} composed={}",
                    out.shard_count,
                    out.seam_pairs,
                    out.result.health.total_retries,
                    out.mosaic.is_some()
                )
            }
            Err(ShardError::Shard {
                name,
                status,
                leaked_reservations: lr,
                leaked_spectra: ls,
            }) => {
                leaked_reservations += lr;
                leaked_spectra += ls;
                let status = match status {
                    JobStatus::Failed(_) => "failed".to_string(),
                    other => format!("{other:?}").to_lowercase(),
                };
                format!("shard-error {name} {status}")
            }
            Err(e) => format!("error {e}"),
        };
        let fate = format!(
            "iter{i} {rows}x{cols}/{shard_rows}x{shard_cols} {tw}x{th} {scenario:?}: {fate}"
        );
        digest = fnv_fold(digest, fate.as_bytes());
        fates.push(fate);
    }

    ShardStressOutcome {
        seed,
        iterations,
        fates,
        digest,
        leaked_reservations,
        leaked_spectra,
        high_water_ok,
    }
}
