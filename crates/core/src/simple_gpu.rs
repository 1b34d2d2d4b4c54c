//! Simple-GPU: the direct port of Simple-CPU onto the device (§IV-A).
//!
//! "The reference GPU implementation is single threaded on the CPU,
//! executes CUDA memory copies synchronously, and invokes all kernels on
//! the default stream." Each operation is followed by a stream
//! synchronize, so nothing overlaps — the profile this produces (Fig 7)
//! shows one kernel at a time with gaps for host work in between. It still
//! carries all of the paper's §IV-A mitigations: transforms computed once
//! and kept in device memory, a pre-allocated buffer pool with
//! reference-count recycling, and only reduction scalars copied back.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use stitch_fft::{Direction, C64};
use stitch_gpu::{Device, PooledBuffer};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, FaultTracker, StitchError};
use crate::grid::Traversal;
use crate::opcount::OpCounters;
use crate::pciam::{PairScratch, DEFAULT_PEAK_COUNT};
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::{PairKind, TileId};

/// The synchronous single-stream GPU stitcher.
pub struct SimpleGpuStitcher {
    device: Device,
    traversal: Traversal,
    /// Device buffers in the transform pool; `None` sizes from the grid.
    pool_size: Option<usize>,
    trace: TraceHandle,
}

struct DeviceTile {
    img: Arc<Image<u16>>,
    buf: PooledBuffer<C64>,
    remaining: usize,
}

impl SimpleGpuStitcher {
    /// Creates a Simple-GPU stitcher on `device`.
    pub fn new(device: Device) -> SimpleGpuStitcher {
        SimpleGpuStitcher {
            device,
            traversal: Traversal::ChainedDiagonal,
            pool_size: None,
            trace: TraceHandle::disabled(),
        }
    }

    /// Overrides the device buffer-pool size.
    pub fn with_pool_size(mut self, pool_size: usize) -> SimpleGpuStitcher {
        self.pool_size = Some(pool_size);
        self
    }

    /// Records host read spans into `trace` and, at the end of the run,
    /// exports the device profiler's spans onto the same clock (tracks
    /// `"gpu{id}/{stream}"`).
    pub fn with_trace(mut self, trace: TraceHandle) -> SimpleGpuStitcher {
        self.trace = trace;
        self
    }
}

impl Stitcher for SimpleGpuStitcher {
    fn name(&self) -> String {
        "Simple-GPU".to_string()
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let t0 = Instant::now();
        let shape = source.shape();
        let (w, h) = source.tile_dims();
        if shape.tiles() == 0 {
            return Ok(StitchResult::empty(shape));
        }
        let n = w * h;
        let counters = OpCounters::new_shared();
        let tracker = FaultTracker::new(shape);
        let mut result = StitchResult::empty(shape);

        // §IV-A: "allocates a pool of buffers in GPU memory for FFT
        // transforms ... to help manage the limited memory available"
        let pool_size = self
            .pool_size
            .unwrap_or(2 * shape.rows.min(shape.cols) + 4)
            .max(4);
        let pool = self
            .device
            .buffer_pool::<C64>(n, pool_size)
            .expect("transform pool fits device memory");
        let stream = self.device.create_stream("default");
        let staging = self.device.alloc::<u16>(n).expect("staging buffer");
        let scratch = self.device.alloc::<C64>(n).expect("fft scratch");
        let pair_buf = self.device.alloc::<C64>(n).expect("pair buffer");

        let mut live: HashMap<TileId, DeviceTile> = HashMap::new();
        let mut peak_live = 0usize;
        // host-side scratch reused across the whole run: the synchronous
        // h2d below means the upload buffer is unique again right after
        // each synchronize, so one allocation serves every tile
        let mut upload: Arc<Vec<u16>> = Arc::new(vec![0u16; n]);
        let mut pair = PairScratch::default();

        let neighbors = |id: TileId| {
            [
                shape.west(id),
                shape.north(id),
                shape.east(id),
                shape.south(id),
            ]
            .into_iter()
            .flatten()
        };
        for id in self.traversal.order(shape) {
            // read tile (host), copy synchronously, transform
            let r0 = self.trace.now_ns();
            let loaded = tracker.load(source, id, &policy.retry);
            self.trace.record(
                "cpu/main",
                "io",
                format!("read r{}c{}", id.row, id.col),
                r0,
                self.trace.now_ns(),
            );
            let img = match loaded {
                Some(img) => Arc::new(img),
                None => {
                    // release resident neighbors whose pair with this
                    // tile will never complete
                    for nb in neighbors(id) {
                        if let Some(e) = live.get_mut(&nb) {
                            e.remaining -= 1;
                            if e.remaining == 0 {
                                live.remove(&nb); // recycles the device buffer
                            }
                        }
                    }
                    continue;
                }
            };
            counters.count_read();
            let buf = pool.acquire();
            match Arc::get_mut(&mut upload) {
                Some(host) => host.copy_from_slice(img.pixels()),
                None => upload = Arc::new(img.pixels().to_vec()),
            }
            stream.h2d(Arc::clone(&upload), &staging);
            stream.synchronize(); // synchronous cudaMemcpy
            stream.convert_u16_to_complex(&staging, &buf);
            stream.synchronize();
            stream.fft2d(w, h, Direction::Forward, &buf, &scratch);
            stream.synchronize();
            counters.count_forward_fft();
            let voided = neighbors(id).filter(|nb| tracker.is_failed(*nb)).count();
            let remaining = shape.degree(id) - voided;
            if remaining > 0 {
                live.insert(
                    id,
                    DeviceTile {
                        img,
                        buf,
                        remaining,
                    },
                );
            }
            peak_live = peak_live.max(live.len());

            // complete ready pairs, one fully synchronous op at a time
            let mut ready: Vec<(TileId, TileId, PairKind)> = Vec::with_capacity(4);
            for (a, b, kind) in [
                (shape.west(id), Some(id), PairKind::West),
                (shape.north(id), Some(id), PairKind::North),
                (Some(id), shape.east(id), PairKind::West),
                (Some(id), shape.south(id), PairKind::North),
            ] {
                if let (Some(a), Some(b)) = (a, b) {
                    if live.contains_key(&a) && live.contains_key(&b) {
                        ready.push((a, b, kind));
                    }
                }
            }
            for (a, b, kind) in ready {
                {
                    let ta = &live[&a];
                    let tb = &live[&b];
                    stream.ncc(ta.buf.buffer(), tb.buf.buffer(), &pair_buf, n);
                    stream.synchronize();
                    counters.count_elementwise();
                    stream.fft2d(w, h, Direction::Inverse, &pair_buf, &scratch);
                    stream.synchronize();
                    counters.count_inverse_fft();
                    let peaks = stream
                        .top_abs_peaks(&pair_buf, n, w, DEFAULT_PEAK_COUNT)
                        .wait();
                    counters.count_max_reduction();
                    // CCF disambiguation on the CPU (host images)
                    pair.peaks.clear();
                    pair.peaks.extend(peaks.iter().map(|p| (p.index, p.value)));
                    let d = pair.resolve((w, h), &ta.img, &tb.img, Some(kind), &counters);
                    let slot = shape.index(b);
                    match kind {
                        PairKind::West => result.west[slot] = Some(d),
                        PairKind::North => result.north[slot] = Some(d),
                    }
                }
                for t in [a, b] {
                    let e = live.get_mut(&t).expect("endpoint resident");
                    e.remaining -= 1;
                    if e.remaining == 0 {
                        live.remove(&t); // recycles the device buffer
                    }
                }
            }
        }
        stream.synchronize();
        debug_assert!(live.is_empty(), "all device tiles must be recycled");
        result.elapsed = t0.elapsed();
        result.ops = counters.snapshot();
        result.peak_live_tiles = peak_live;
        self.trace.set_gauge("peak_live_tiles", peak_live as f64);
        self.device
            .profiler()
            .export_to_trace(&self.trace, &format!("gpu{}", self.device.id()));
        result.health = tracker.finish(policy)?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_gpu::DeviceConfig;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn source(rows: usize, cols: usize) -> SyntheticSource {
        SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: 64,
            tile_height: 48,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: 71,
        }))
    }

    fn device() -> Device {
        Device::new(0, DeviceConfig::small(256 << 20))
    }

    #[test]
    fn matches_cpu_results() {
        let src = source(3, 4);
        let cpu = SimpleCpuStitcher::default().compute_displacements(&src);
        let gpu = SimpleGpuStitcher::new(device()).compute_displacements(&src);
        assert_eq!(gpu.west, cpu.west);
        assert_eq!(gpu.north, cpu.north);
    }

    #[test]
    fn recovers_ground_truth() {
        let src = source(3, 3);
        let r = SimpleGpuStitcher::new(device()).compute_displacements(&src);
        assert!(r.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(r.count_errors(&tw, &tn, 0), 0);
    }

    #[test]
    fn releases_all_device_memory() {
        let dev = device();
        let src = source(2, 3);
        let before = dev.memory_used();
        SimpleGpuStitcher::new(dev.clone()).compute_displacements(&src);
        assert_eq!(dev.memory_used(), before, "pool and buffers must be freed");
    }

    #[test]
    fn serialized_profile_has_gaps() {
        // Fig 7's signature: one kernel at a time on the default stream
        let dev = device();
        let src = source(2, 3);
        SimpleGpuStitcher::new(dev.clone()).compute_displacements(&src);
        assert_eq!(
            dev.profiler()
                .peak_concurrency(stitch_gpu::SpanKind::Kernel),
            1
        );
    }

    #[test]
    fn tiny_pool_still_completes() {
        let src = source(2, 4);
        let r = SimpleGpuStitcher::new(device())
            .with_pool_size(6)
            .compute_displacements(&src);
        assert!(r.is_complete());
        assert!(r.peak_live_tiles <= 6);
    }
}
