//! Seeded stress runner for the multi-job scheduler — the cross-job
//! sibling of [`run_stress`](crate::run_stress).
//!
//! From one seed it derives a whole *batch* regime: how many jobs, each
//! job's grid/variant/threads/priority, the scheduler's worker count,
//! and a memory budget that is deliberately sometimes too small for the
//! largest jobs. Then it runs the batch through a real
//! [`Scheduler`](stitch_sched::Scheduler) and digests every observable
//! output.
//!
//! Contract, mirroring `run_stress`:
//!
//! * `run_sched_stress(seed)` is **pure in `seed`** for its deterministic
//!   parts: per-job result digests (equal for equal seeds, regardless of
//!   interleaving) and the set of rejected jobs (rejections happen only
//!   via the deterministic `TooLarge` admission check, never via timing).
//!   `PartialEq` on [`SchedStressOutcome`] compares exactly those parts.
//! * Every digest must equal [`run_job_solo`] of the same job — a
//!   scheduler may reorder and interleave, but shared pools, plan caches,
//!   and device contention must never leak into results.
//! * The audit fields must come back clean: `high_water <= budget`,
//!   and zero outstanding reservations or pool leases after the batch.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stitch_core::prelude::*;
use stitch_core::{
    FijiStyleStitcher, MtCpuStitcher, PipelinedCpuConfig, PipelinedCpuStitcher, PipelinedGpuConfig,
    PipelinedGpuStitcher, SimpleCpuStitcher, SimpleGpuStitcher, TransformKind,
};
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::{Image, ScanConfig, SyntheticPlate};
use stitch_sched::{JobStatus, JobVariant, Scheduler, SchedulerConfig, StitchJob, SubmitError};

use crate::{fnv_fold, FNV_OFFSET};

/// The batch regime derived from one seed.
#[derive(Clone, Debug)]
pub struct SchedStressConfig {
    /// The driving seed.
    pub seed: u64,
    /// Concurrent job slots.
    pub workers: usize,
    /// Stream-lease bound on the shared device.
    pub stream_slots: usize,
    /// Host-memory admission budget, bytes.
    pub memory_budget: usize,
    /// The jobs, in submission order.
    pub jobs: Vec<StitchJob>,
}

impl SchedStressConfig {
    /// Derives a full batch regime from a seed.
    pub fn derive(seed: u64) -> SchedStressConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5c4ed);
        let n_jobs = rng.gen_range(3usize..=6);
        let variants = [
            JobVariant::SimpleCpu,
            JobVariant::MtCpu,
            JobVariant::PipelinedCpu,
            JobVariant::FijiStyle,
            JobVariant::SimpleGpu,
            JobVariant::PipelinedGpu,
        ];
        let mut jobs = Vec::with_capacity(n_jobs);
        for i in 0..n_jobs {
            let rows = rng.gen_range(2usize..=3);
            let cols = rng.gen_range(2usize..=4);
            let (tile_w, tile_h) = [(48, 40), (64, 48), (40, 32)][rng.gen_range(0usize..3)];
            let scan = ScanConfig::for_grid(
                rows,
                cols,
                tile_w,
                tile_h,
                0.20 + 0.03 * rng.gen_range(0u64..6) as f64,
                seed ^ (0x9e37 + i as u64),
            );
            let job = StitchJob::new(format!("job{i}"), scan)
                .variant(variants[rng.gen_range(0usize..variants.len())])
                .threads(rng.gen_range(1usize..=3))
                .priority(rng.gen_range(1u32..=3))
                .compose(rng.gen_range(0u32..3) == 0);
            jobs.push(job);
        }
        // Half the seeds get a budget that fits every job; the other half
        // get the *median* job footprint, deterministically rejecting the
        // larger jobs at submission. Always at least one admissible job.
        let mut estimates: Vec<usize> = jobs.iter().map(|j| j.estimated_bytes()).collect();
        estimates.sort_unstable();
        let memory_budget = if rng.gen_range(0u32..2) == 0 {
            *estimates.last().expect("jobs is non-empty")
        } else {
            estimates[estimates.len() / 2]
        };
        SchedStressConfig {
            seed,
            workers: rng.gen_range(1usize..=3),
            stream_slots: rng.gen_range(1usize..=2),
            memory_budget,
            jobs,
        }
    }
}

/// A compact, order-independent digest of one job's full result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobDigest {
    /// Job name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// West displacements, row-major.
    pub west: Vec<Option<Displacement2>>,
    /// North displacements, row-major.
    pub north: Vec<Option<Displacement2>>,
    /// Solved absolute positions.
    pub positions: Vec<(i64, i64)>,
    /// FNV-1a hash of the composed mosaic (`None` when not composed).
    pub mosaic_fnv: Option<u64>,
}

/// An `Eq`-able displacement (the core type carries an `f64` correlation;
/// the digest keeps its bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Displacement2 {
    /// Pixel offset x.
    pub x: i64,
    /// Pixel offset y.
    pub y: i64,
    /// `correlation.to_bits()` — bit-exact equality, which is the point.
    pub correlation_bits: u64,
}

impl From<Displacement> for Displacement2 {
    fn from(d: Displacement) -> Displacement2 {
        Displacement2 {
            x: d.x,
            y: d.y,
            correlation_bits: d.correlation.to_bits(),
        }
    }
}

fn digest_displacements(v: &[Option<Displacement>]) -> Vec<Option<Displacement2>> {
    v.iter().map(|d| d.map(Displacement2::from)).collect()
}

fn digest_mosaic(img: &Image<u16>) -> u64 {
    let h = (img.pixels().iter()).fold(FNV_OFFSET, |h, p| fnv_fold(h, &p.to_le_bytes()));
    h ^ ((img.width() as u64) << 32 | img.height() as u64)
}

/// Everything one scheduler stress run observed. `PartialEq` covers only
/// the deterministic parts (digests + rejections); the audit fields are
/// timing-dependent and asserted against invariants instead.
#[derive(Clone, Debug)]
pub struct SchedStressOutcome {
    /// The derived regime.
    pub config: SchedStressConfig,
    /// Per-job digests, sorted by job name (completion order is timing).
    pub digests: Vec<JobDigest>,
    /// Names rejected at submission (all must be `TooLarge`), sorted.
    pub rejected: Vec<String>,
    /// Arbiter high-water mark — must never exceed the budget.
    pub high_water: usize,
    /// Reservations still outstanding after the batch (must be 0).
    pub reservations_after: usize,
    /// Spectrum-pool leases still outstanding after the batch (must be 0).
    pub leases_after: usize,
}

impl PartialEq for SchedStressOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.config.seed == other.config.seed
            && self.digests == other.digests
            && self.rejected == other.rejected
    }
}

impl SchedStressOutcome {
    /// All scheduler-side resource invariants in one check.
    pub fn resources_clean(&self) -> bool {
        self.high_water <= self.config.memory_budget
            && self.reservations_after == 0
            && self.leases_after == 0
    }
}

fn digest_outcome(out: &stitch_sched::JobOutcome) -> JobDigest {
    let (west, north) = match &out.result {
        Some(r) => (
            digest_displacements(&r.west),
            digest_displacements(&r.north),
        ),
        None => (Vec::new(), Vec::new()),
    };
    JobDigest {
        name: out.name.clone(),
        status: out.status.clone(),
        west,
        north,
        positions: out
            .positions
            .as_ref()
            .map(|p| p.positions.clone())
            .unwrap_or_default(),
        mosaic_fnv: out.mosaic.as_ref().map(digest_mosaic),
    }
}

/// Runs one seeded scheduler stress iteration. Deterministic parts are
/// pure in `seed`; see the module docs for the contract.
pub fn run_sched_stress(seed: u64) -> SchedStressOutcome {
    let config = SchedStressConfig::derive(seed);
    let device = Device::new(
        0,
        DeviceConfig {
            stream_slots: Some(config.stream_slots),
            ..DeviceConfig::small(256 << 20)
        },
    );
    let sched = Scheduler::new(SchedulerConfig {
        workers: config.workers,
        memory_budget: config.memory_budget,
        max_pending: config.jobs.len(),
        device: Some(device),
        trace: stitch_trace::TraceHandle::disabled(),
    });
    let mut handles = Vec::new();
    let mut rejected = Vec::new();
    for job in config.jobs.clone() {
        let name = job.name.clone();
        match sched.submit(job) {
            Ok(h) => handles.push(h),
            Err(SubmitError::TooLarge { .. }) => rejected.push(name),
            Err(e) => panic!("only TooLarge rejections are deterministic, got {e}"),
        }
    }
    let mut digests: Vec<JobDigest> = handles.iter().map(|h| digest_outcome(&h.wait())).collect();
    digests.sort_by(|a, b| a.name.cmp(&b.name));
    rejected.sort_unstable();
    sched.join();
    SchedStressOutcome {
        high_water: sched.arbiter().high_water(),
        reservations_after: sched.arbiter().active_reservations(),
        leases_after: sched.arbiter().leased_spectra(),
        config,
        digests,
        rejected,
    }
}

/// Runs one job *alone*, with nothing shared — private pools, private
/// planner, private device — and digests the result. The differential
/// baseline for the bit-identical-under-concurrency contract.
pub fn run_job_solo(job: &StitchJob) -> JobDigest {
    let plate = SyntheticPlate::generate(job.scan.clone());
    let source = SyntheticSource::new(plate);
    let device = || Device::new(0, DeviceConfig::small(256 << 20));
    let stitcher: Box<dyn Stitcher> = match job.variant {
        JobVariant::SimpleCpu => {
            Box::new(SimpleCpuStitcher::default().with_transform(TransformKind::Complex))
        }
        JobVariant::MtCpu => Box::new(MtCpuStitcher::new(job.threads)),
        JobVariant::PipelinedCpu => Box::new(PipelinedCpuStitcher::with_config(
            PipelinedCpuConfig::with_threads(job.threads),
        )),
        JobVariant::FijiStyle => Box::new(FijiStyleStitcher::new(job.threads)),
        JobVariant::SimpleGpu => Box::new(SimpleGpuStitcher::new(device())),
        JobVariant::PipelinedGpu => Box::new(PipelinedGpuStitcher::new(
            vec![device()],
            PipelinedGpuConfig {
                ccf_threads: job.threads.max(1),
                ..Default::default()
            },
        )),
    };
    let result = stitcher
        .try_compute_displacements(&source, &FailurePolicy::default())
        .expect("clean synthetic source");
    let positions = GlobalOptimizer::default().solve(&result);
    let mosaic = job
        .compose
        .then(|| Composer::new(positions.clone(), Blend::Overlay).compose(&source));
    JobDigest {
        name: job.name.clone(),
        status: JobStatus::Completed,
        west: digest_displacements(&result.west),
        north: digest_displacements(&result.north),
        positions: positions.positions,
        mosaic_fnv: mosaic.as_ref().map(digest_mosaic),
    }
}

/// Convenience: the solo digests of every job in a config, by name.
pub fn solo_digests(config: &SchedStressConfig) -> HashMap<String, JobDigest> {
    config
        .jobs
        .iter()
        .map(|j| (j.name.clone(), run_job_solo(j)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_in_envelope() {
        for seed in 0..32u64 {
            let a = SchedStressConfig::derive(seed);
            let b = SchedStressConfig::derive(seed);
            assert_eq!(a.workers, b.workers);
            assert_eq!(a.memory_budget, b.memory_budget);
            assert_eq!(a.jobs.len(), b.jobs.len());
            assert!((3..=6).contains(&a.jobs.len()));
            assert!((1..=3).contains(&a.workers));
            // at least one job always fits (budget >= median estimate)
            assert!(a
                .jobs
                .iter()
                .any(|j| j.estimated_bytes() <= a.memory_budget));
            for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
                assert_eq!(ja.name, jb.name);
                assert_eq!(ja.variant, jb.variant);
                assert_eq!(ja.scan, jb.scan);
                assert_eq!((ja.threads, ja.priority), (jb.threads, jb.priority));
            }
        }
    }
}
