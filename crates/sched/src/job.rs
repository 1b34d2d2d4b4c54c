//! Job descriptions, handles, and outcomes.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use stitch_canvas::SharedCanvas;
use stitch_core::{AbsolutePositions, StitchResult, TileSource, TransformKind};
use stitch_image::{Image, ScanConfig};
use stitch_trace::RunReport;

/// Which stitcher implementation a job runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobVariant {
    /// Sequential reference CPU implementation.
    SimpleCpu,
    /// Multi-threaded CPU implementation.
    MtCpu,
    /// Three-stage pipelined CPU implementation.
    PipelinedCpu,
    /// Fiji-style per-pair implementation.
    FijiStyle,
    /// Single-stream GPU implementation (needs a shared device).
    SimpleGpu,
    /// Pipelined GPU implementation (needs a shared device).
    PipelinedGpu,
}

impl JobVariant {
    /// The CLI/job-file token for this variant.
    pub fn token(&self) -> &'static str {
        match self {
            JobVariant::SimpleCpu => "simple-cpu",
            JobVariant::MtCpu => "mt-cpu",
            JobVariant::PipelinedCpu => "pipelined-cpu",
            JobVariant::FijiStyle => "fiji",
            JobVariant::SimpleGpu => "simple-gpu",
            JobVariant::PipelinedGpu => "pipelined-gpu",
        }
    }

    /// Parses a job-file token.
    pub fn parse(s: &str) -> Result<JobVariant, String> {
        match s {
            "simple-cpu" => Ok(JobVariant::SimpleCpu),
            "mt-cpu" => Ok(JobVariant::MtCpu),
            "pipelined-cpu" => Ok(JobVariant::PipelinedCpu),
            "fiji" => Ok(JobVariant::FijiStyle),
            "simple-gpu" => Ok(JobVariant::SimpleGpu),
            "pipelined-gpu" => Ok(JobVariant::PipelinedGpu),
            other => Err(format!(
                "unknown variant '{other}' (expected simple-cpu, mt-cpu, \
                 pipelined-cpu, fiji, simple-gpu, or pipelined-gpu)"
            )),
        }
    }

    /// Whether this variant runs on the shared simulated device.
    pub fn needs_device(&self) -> bool {
        matches!(self, JobVariant::SimpleGpu | JobVariant::PipelinedGpu)
    }
}

/// Fault-injection hooks carried by a job — the scheduler-level sibling
/// of the tile/GPU fault specs from the fault-tolerance layer. Both
/// hooks run *inside* the job's contained execution, so they exercise
/// the watchdog and panic-containment paths without touching real work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosHooks {
    /// Before doing any work, the job spins in a cancellable sleep for
    /// this many milliseconds — a stand-in for a hung job. The sleep
    /// checks for cancellation every millisecond, so a watchdog cancel
    /// (or an explicit [`JobHandle::cancel`]) reclaims the worker slot
    /// promptly; `u64::MAX` hangs until cancelled.
    pub hang_ms: Option<u64>,
    /// Panic at the start of execution (after the hang, if both are
    /// set). The panic is contained; the job fails, siblings continue.
    pub panic_at_start: bool,
}

impl ChaosHooks {
    /// True when no hook is armed.
    pub fn is_noop(&self) -> bool {
        self.hang_ms.is_none() && !self.panic_at_start
    }
}

/// A caller-supplied [`TileSource`] carried by a job in place of the
/// synthetic plate the scheduler would otherwise generate from the
/// job's [`ScanConfig`]. Cloning shares the source (it is an `Arc`);
/// the sharded driver uses this to run many sub-grid views of one
/// plate through the scheduler.
#[derive(Clone)]
pub struct JobSource(Arc<dyn TileSource>);

impl JobSource {
    /// Wraps a shared tile source.
    pub fn new(source: Arc<dyn TileSource>) -> JobSource {
        JobSource(source)
    }

    /// The wrapped source as a trait object.
    pub fn as_dyn(&self) -> &dyn TileSource {
        &*self.0
    }
}

impl fmt::Debug for JobSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = self.0.shape();
        let (w, h) = self.0.tile_dims();
        write!(
            f,
            "JobSource({}x{} grid of {w}x{h} tiles)",
            shape.rows, shape.cols
        )
    }
}

/// One stitching job submitted to the [`Scheduler`](crate::Scheduler):
/// a synthetic grid spec plus execution parameters.
#[derive(Clone, Debug)]
pub struct StitchJob {
    /// Unique job name; per-job trace lanes appear as `job.<name>/…`.
    pub name: String,
    /// Owning tenant for quota accounting; `None` jobs are unscoped.
    /// When set, the job's memory reservation is charged against the
    /// tenant's [`ResourceArbiter`](crate::ResourceArbiter) scope cap
    /// (if one is configured) in addition to the global budget.
    pub tenant: Option<String>,
    /// The grid to stitch (the synthetic plate is generated from this,
    /// so a job is fully described by its spec — no file I/O needed).
    pub scan: ScanConfig,
    /// Implementation to run.
    pub variant: JobVariant,
    /// Compute threads for the multi-threaded variants.
    pub threads: usize,
    /// Scheduling weight, ≥ 1. Under contention a class of weight `2w`
    /// is dispatched twice as often as a class of weight `w` (stride
    /// scheduling); equal weights share fairly in submission order.
    pub priority: u32,
    /// Queued jobs not *started* within this much time of submission are
    /// abandoned with [`JobStatus::Expired`]. `None` never expires.
    pub deadline: Option<Duration>,
    /// Watchdog: a *running* job that has not finished within this much
    /// time of dispatch is cancelled by the scheduler and finishes as
    /// [`JobStatus::TimedOut`], releasing every lease it held. `None`
    /// runs unwatched.
    pub watchdog: Option<Duration>,
    /// Whether to compose the full mosaic after global optimization.
    pub compose: bool,
    /// Run the job through the incremental canvas path: tiles are
    /// registered in arrival (row-major) order onto a shared
    /// [`SharedCanvas`](stitch_canvas::SharedCanvas) with periodic
    /// re-solves, so [`JobHandle::preview_canvas`] serves progressive
    /// region previews while the job is still running. The final
    /// displacements and positions are bit-identical to the batch path
    /// (phase 1 is a pure per-pair function), but execution is
    /// sequential — `variant` is ignored for compute.
    pub preview: bool,
    /// Fault-injection hooks (hang / panic), for chaos testing.
    pub chaos: ChaosHooks,
    /// When set, the job stitches this source instead of generating a
    /// synthetic plate from `scan`. `scan` must still describe the
    /// source's geometry: it is what [`StitchJob::estimated_bytes`]
    /// sizes the admission-control reservation from.
    pub source: Option<JobSource>,
    /// When set, phases 1–2 are skipped entirely and the job composes
    /// its source with this already-solved frame — the channel-replay
    /// path, where one registration run's positions are replayed across
    /// every (channel, plane) compose job. The outcome carries the given
    /// positions and no phase-1 result.
    pub fixed_positions: Option<AbsolutePositions>,
}

impl StitchJob {
    /// A single-threaded Simple-CPU job over `scan` with weight 1.
    pub fn new(name: impl Into<String>, scan: ScanConfig) -> StitchJob {
        StitchJob {
            name: name.into(),
            tenant: None,
            scan,
            variant: JobVariant::SimpleCpu,
            threads: 1,
            priority: 1,
            deadline: None,
            watchdog: None,
            compose: true,
            preview: false,
            chaos: ChaosHooks::default(),
            source: None,
            fixed_positions: None,
        }
    }

    /// A single-threaded Simple-CPU job over a caller-supplied source.
    /// The job's [`ScanConfig`] is derived from the source's geometry so
    /// admission control reserves memory for the grid actually stitched.
    pub fn over_source(name: impl Into<String>, source: Arc<dyn TileSource>) -> StitchJob {
        let shape = source.shape();
        let (tw, th) = source.tile_dims();
        let scan = ScanConfig::for_grid(shape.rows.max(1), shape.cols.max(1), tw, th, 0.25, 0);
        StitchJob::new(name, scan).with_source(source)
    }

    /// Sets a caller-supplied tile source (see [`StitchJob::source`]).
    pub fn with_source(mut self, source: Arc<dyn TileSource>) -> StitchJob {
        self.source = Some(JobSource::new(source));
        self
    }

    /// Replays an already-solved frame: the job skips registration and
    /// global optimization and goes straight to composition with these
    /// positions (see [`StitchJob::fixed_positions`]).
    pub fn fixed_positions(mut self, positions: AbsolutePositions) -> StitchJob {
        self.fixed_positions = Some(positions);
        self
    }

    /// Sets the owning tenant (quota-accounting scope).
    pub fn tenant(mut self, tenant: impl Into<String>) -> StitchJob {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the running-time watchdog.
    pub fn watchdog(mut self, watchdog: Duration) -> StitchJob {
        self.watchdog = Some(watchdog);
        self
    }

    /// Sets the chaos hooks.
    pub fn chaos(mut self, chaos: ChaosHooks) -> StitchJob {
        self.chaos = chaos;
        self
    }

    /// Sets the implementation variant.
    pub fn variant(mut self, variant: JobVariant) -> StitchJob {
        self.variant = variant;
        self
    }

    /// Sets the compute thread count.
    pub fn threads(mut self, threads: usize) -> StitchJob {
        self.threads = threads.max(1);
        self
    }

    /// Sets the scheduling weight (clamped to ≥ 1).
    pub fn priority(mut self, priority: u32) -> StitchJob {
        self.priority = priority.max(1);
        self
    }

    /// Sets the queue deadline.
    pub fn deadline(mut self, deadline: Duration) -> StitchJob {
        self.deadline = Some(deadline);
        self
    }

    /// Sets whether the mosaic is composed.
    pub fn compose(mut self, compose: bool) -> StitchJob {
        self.compose = compose;
        self
    }

    /// Sets whether the job runs the incremental preview-canvas path
    /// (see [`StitchJob::preview`]).
    pub fn preview(mut self, preview: bool) -> StitchJob {
        self.preview = preview;
        self
    }

    /// Host-memory bytes the scheduler reserves before running this job:
    /// the bounded spectrum-pool quota (`quota × buf_len × 16`) plus the
    /// in-flight tile images the transform pool admits. This is the
    /// admission-control cost model — intentionally a ceiling, so the
    /// budget is never over-committed by jobs that allocate less.
    pub fn estimated_bytes(&self) -> usize {
        let (w, h) = (self.scan.tile_width, self.scan.tile_height);
        let buf_len = stitch_core::Correlator::spectrum_len(TransformKind::Complex, w, h);
        let quota = self.spectrum_quota();
        let spectra = quota * buf_len * std::mem::size_of::<stitch_fft::C64>();
        let tiles = quota * w * h * std::mem::size_of::<u16>();
        spectra + tiles
    }

    /// Spectrum-pool lease quota for this job: the pipelined transform
    /// pool bound (`4·min_dim + 8`, the most buffers any variant holds
    /// live at once) plus one slack buffer per compute thread.
    pub fn spectrum_quota(&self) -> usize {
        let min_dim = self.scan.grid_rows.min(self.scan.grid_cols);
        (4 * min_dim + 8).max(4) + self.threads
    }
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Cancelled via [`JobHandle::cancel`] before or between phases.
    Cancelled,
    /// Sat in the queue past its deadline and was never started.
    Expired,
    /// Ran past its [`StitchJob::watchdog`] deadline and was cancelled
    /// by the scheduler's watchdog; every lease was reclaimed.
    TimedOut,
    /// The stitcher returned an error (or panicked; the panic is
    /// contained and reported here).
    Failed(String),
}

/// Everything a finished job produced.
#[derive(Clone)]
pub struct JobOutcome {
    /// Job name, as submitted.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Phase-1 result (present when the job got that far).
    pub result: Option<StitchResult>,
    /// Phase-2 globally optimized positions.
    pub positions: Option<AbsolutePositions>,
    /// Phase-3 mosaic (when `compose` was requested).
    pub mosaic: Option<Image<u16>>,
    /// Per-job run report derived from the job's private trace lane
    /// (present when the scheduler ran with tracing enabled).
    pub report: Option<RunReport>,
    /// Wall time from dispatch to finish (zero for never-started jobs).
    pub elapsed: Duration,
}

impl JobOutcome {
    pub(crate) fn unstarted(name: &str, status: JobStatus) -> JobOutcome {
        JobOutcome {
            name: name.to_string(),
            status,
            result: None,
            positions: None,
            mosaic: None,
            report: None,
            elapsed: Duration::ZERO,
        }
    }
}

pub(crate) struct JobShared {
    pub(crate) name: String,
    pub(crate) cancel: AtomicBool,
    /// Set (together with `cancel`) when the cancellation came from the
    /// scheduler's watchdog, so the outcome reads `TimedOut` rather
    /// than `Cancelled`.
    pub(crate) timed_out: AtomicBool,
    pub(crate) outcome: Mutex<Option<JobOutcome>>,
    pub(crate) done: Condvar,
    /// Pokes the scheduler's dispatcher so a cancelled *queued* job is
    /// finalized promptly instead of at the next natural wakeup.
    pub(crate) wake_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Live preview canvas, installed at submit time for preview jobs
    /// so callers can read regions while the job runs.
    pub(crate) preview: Mutex<Option<Arc<SharedCanvas>>>,
}

/// Caller-side handle to a submitted job: await or cancel it.
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    pub(crate) fn new(name: &str) -> JobHandle {
        JobHandle {
            shared: Arc::new(JobShared {
                name: name.to_string(),
                cancel: AtomicBool::new(false),
                timed_out: AtomicBool::new(false),
                outcome: Mutex::new(None),
                done: Condvar::new(),
                wake_hook: Mutex::new(None),
                preview: Mutex::new(None),
            }),
        }
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Requests cancellation. A queued job is dropped without running; a
    /// running job stops at its next phase boundary and releases every
    /// lease it holds. Idempotent; racing a natural completion is fine
    /// (the job just completes).
    pub fn cancel(&self) {
        self.signal_cancel();
        if let Some(hook) = self.shared.wake_hook.lock().as_ref() {
            hook();
        }
    }

    /// True once a terminal outcome is available.
    pub fn is_done(&self) -> bool {
        self.shared.outcome.lock().is_some()
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = self.shared.outcome.lock();
        while slot.is_none() {
            self.shared.done.wait(&mut slot);
        }
        slot.clone().expect("outcome present")
    }

    pub(crate) fn set_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.shared.wake_hook.lock() = Some(Box::new(hook));
    }

    /// The job's live preview canvas, when it was submitted with
    /// [`StitchJob::preview`]. Available from the moment `submit`
    /// returns — regions read before (or while) tiles land simply come
    /// back as background zeros, and the canvas stays readable after
    /// the job finishes.
    pub fn preview_canvas(&self) -> Option<Arc<SharedCanvas>> {
        self.shared.preview.lock().clone()
    }

    pub(crate) fn set_preview_canvas(&self, canvas: Arc<SharedCanvas>) {
        *self.shared.preview.lock() = Some(canvas);
    }

    pub(crate) fn cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::Acquire)
    }

    /// Sets the cancel flag without running the wake hook, for callers
    /// that already hold the scheduler's queue lock (the hook takes it).
    pub(crate) fn signal_cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Watchdog-flavored [`JobHandle::signal_cancel`]: the terminal
    /// status becomes [`JobStatus::TimedOut`].
    pub(crate) fn signal_timeout(&self) {
        self.shared.timed_out.store(true, Ordering::Release);
        self.signal_cancel();
    }

    /// The status a cancellation should resolve to: `TimedOut` when the
    /// cancel came from the watchdog, `Cancelled` otherwise.
    pub(crate) fn cancel_status(&self) -> JobStatus {
        if self.shared.timed_out.load(Ordering::Acquire) {
            JobStatus::TimedOut
        } else {
            JobStatus::Cancelled
        }
    }

    pub(crate) fn finish(&self, outcome: JobOutcome) {
        let mut slot = self.shared.outcome.lock();
        *slot = Some(outcome);
        self.shared.done.notify_all();
    }

    pub(crate) fn clone_internal(&self) -> JobHandle {
        JobHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}
