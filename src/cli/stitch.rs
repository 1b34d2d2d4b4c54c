//! `stitch stitch`: one path for every dataset. Every dataset opens as a
//! multi-channel acquisition (a legacy manifest is 1 channel × 1 plane),
//! registration runs once on the reference channel, and the solved frame
//! is composed and written one `(channel, plane)` unit at a time.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use stitch_core::pciam_real::TransformKind;
use stitch_core::prelude::*;
use stitch_gpu::{Device, DeviceConfig, GpuFaultConfig};
use stitch_sched::JobVariant;
use stitch_trace::TraceHandle;

use super::sinks::{
    trace_handle, write_file, write_image, write_positions, write_run_report, write_trace,
};
use super::{Command, Failure};

/// Runs a parsed [`Command::Stitch`].
pub(super) fn run(cmd: Command) -> Result<(), Failure> {
    let Command::Stitch {
        dataset,
        implementation,
        threads,
        gpus,
        transform,
        blend,
        out,
        positions_out,
        highlight,
        retries,
        retry_backoff_ms,
        fault_spec,
        allow_partial,
        health_out,
        trace_out,
        report_out,
        backend,
        ref_channel,
        correct_illumination,
        maxz,
    } = cmd
    else {
        unreachable!("stitch::run takes Command::Stitch")
    };
    // Pin the compute backend before any pipeline work; when the flag is
    // absent, the first kernel dispatch resolves it from STITCH_BACKEND /
    // auto-detection instead.
    if let Some(choice) = backend {
        stitch_fft::backend::select(choice);
    }
    // one shared recorder feeds both outputs
    let trace = trace_handle(trace_out.is_some() || report_out.is_some());
    let policy = FailurePolicy {
        retry: RetryPolicy {
            max_retries: retries,
            backoff: Duration::from_millis(retry_backoff_ms),
            ..RetryPolicy::default()
        },
        allow_partial,
    };
    // One spec string configures both injection layers: the core parser
    // reads the tile-level keys, the gpu parser the gpu- ones.
    let bad_spec = |e: &dyn std::fmt::Display| Failure::input(format!("bad --fault-spec: {e}"));
    let tile_faults = fault_spec
        .as_deref()
        .map(FaultSpec::parse)
        .transpose()
        .map_err(|e| bad_spec(&e))?
        .filter(|s| !s.is_noop());
    let gpu_faults = fault_spec
        .as_deref()
        .map(GpuFaultConfig::parse)
        .transpose()
        .map_err(|e| bad_spec(&e))?
        .flatten();
    let stitcher = build_stitcher(
        implementation,
        threads,
        gpus,
        transform,
        DeviceConfig {
            fault: gpu_faults,
            ..DeviceConfig::default()
        },
        &trace,
    );

    let source = MultiDirSource::open(&dataset)
        .map_err(|e| Failure::input(format!("cannot open dataset: {e}")))?;
    let (channels, z_planes) = (source.channels(), source.z_planes());
    // unit labels go into output names only for channel runs, so a plain
    // dataset keeps writing exactly the paths it was given
    let labelled = channels > 1 || z_planes > 1 || ref_channel > 0 || correct_illumination || maxz;
    let session = ChannelSession::new(
        Arc::new(source),
        ChannelPlan {
            reference_channel: ref_channel,
            z_mode: if maxz {
                ZMode::MaxProject
            } else {
                ZMode::Stack
            },
            registration_plane: None,
            correct_illumination,
        },
    )
    .map_err(|e| Failure::input(e.to_string()))?;
    // Every unit reads through its own fault wrapper built from the one
    // spec, so a corrupt tile is missing from every mosaic.
    let with_faults = |src: Arc<dyn TileSource>| -> Arc<dyn TileSource> {
        match &tile_faults {
            Some(spec) => Arc::new(FaultySource::new(src, spec.clone())),
            None => src,
        }
    };
    let registration = with_faults(session.registration_source());
    let shape = registration.shape();
    let detail = if labelled {
        format!(
            ", {channels} channel(s) x {z_planes} plane(s), registering on channel {ref_channel}{}",
            if correct_illumination {
                ", flat-field corrected"
            } else {
                ""
            }
        )
    } else {
        String::new()
    };
    println!(
        "stitching {} ({}x{} grid{detail}) with {}",
        dataset.display(),
        shape.rows,
        shape.cols,
        stitcher.name()
    );

    let result = stitcher
        .try_compute_displacements(registration.as_ref(), &policy)
        .map_err(|e| Failure::aborted(e.to_string()))?;
    let health = &result.health;
    if health.is_degraded() || !health.recovered_tiles().is_empty() {
        println!(
            "health: {} tile(s) failed, {} recovered, {} retries total",
            health.failed_tiles().len(),
            health.recovered_tiles().len(),
            health.total_retries
        );
        for id in health.failed_tiles() {
            println!("  lost tile {id}");
        }
    }
    if let Some(path) = &health_out {
        write_file(path, health.to_json(), "health report")?;
        println!("health report -> {}", path.display());
    }
    println!(
        "phase 1: {} pairs in {:.2?} ({} forward FFTs, peak {} live tiles)",
        shape.pairs(),
        result.elapsed,
        result.ops.forward_ffts,
        result.peak_live_tiles
    );
    let positions = GlobalOptimizer::default().solve(&result);
    if let Some(path) = &positions_out {
        write_positions(path, &positions)?;
        println!("phase 2: positions -> {}", path.display());
    }

    if let Some(base) = &out {
        let registration_unit = session.registration_unit();
        for unit in session.units() {
            // The registration unit reuses the source phase 1 read, so its
            // fault attempts continue where registration left off.
            let source = if unit == registration_unit {
                Arc::clone(&registration)
            } else {
                with_faults(session.unit_source(unit))
            };
            let mut composer = Composer::new(positions.clone(), blend).with_trace(trace.clone());
            composer.highlight_tiles = highlight;
            let mosaic = composer.compose(source.as_ref());
            let path = if labelled {
                unit_output_path(base, &unit.label())
            } else {
                base.clone()
            };
            write_image(&path, &mosaic, "mosaic")?;
            println!(
                "phase 3: {}x{} mosaic -> {}",
                mosaic.width(),
                mosaic.height(),
                path.display()
            );
        }
    }
    if let Some(path) = &trace_out {
        write_trace(path, &trace)?;
        println!("trace -> {}", path.display());
    }
    if let Some(path) = &report_out {
        let report = write_run_report(path, &trace)?;
        println!(
            "run report -> {} (kernel density {:.3}, copy/compute overlap {:.3})",
            path.display(),
            report.kernel_density,
            report.copy_compute_overlap
        );
    }
    Ok(())
}

/// The phase-1 stitcher for `variant`, recording into `trace`.
fn build_stitcher(
    variant: JobVariant,
    threads: usize,
    gpus: usize,
    transform: TransformKind,
    device_config: DeviceConfig,
    trace: &TraceHandle,
) -> Box<dyn Stitcher> {
    let trace = trace.clone();
    match variant {
        JobVariant::SimpleCpu => Box::new(
            SimpleCpuStitcher::default()
                .with_transform(transform)
                .with_trace(trace),
        ),
        JobVariant::MtCpu => Box::new(MtCpuStitcher::new(threads).with_trace(trace)),
        JobVariant::PipelinedCpu => Box::new(
            PipelinedCpuStitcher::with_config(stitch_core::PipelinedCpuConfig {
                transform,
                ..stitch_core::PipelinedCpuConfig::with_threads(threads)
            })
            .with_trace(trace),
        ),
        JobVariant::SimpleGpu => {
            Box::new(SimpleGpuStitcher::new(Device::new(0, device_config)).with_trace(trace))
        }
        JobVariant::PipelinedGpu => {
            let devices = (0..gpus.max(1))
                .map(|i| Device::new(i, device_config.clone()))
                .collect();
            Box::new(
                PipelinedGpuStitcher::new(
                    devices,
                    stitch_core::PipelinedGpuConfig {
                        ccf_threads: threads.max(1),
                        ..Default::default()
                    },
                )
                .with_trace(trace),
            )
        }
        JobVariant::FijiStyle => Box::new(FijiStyleStitcher::new(threads).with_trace(trace)),
    }
}

/// Splices a compose-unit label into an output path before the
/// extension: `m.pgm` + `c01_z02` → `m_c01_z02.pgm`.
pub(super) fn unit_output_path(base: &Path, label: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("mosaic");
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}_{label}.{ext}"),
        None => format!("{stem}_{label}"),
    };
    base.with_file_name(name)
}
