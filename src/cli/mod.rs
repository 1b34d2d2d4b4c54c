//! Command-line interface plumbing for the `stitch` binary.
//!
//! A small hand-rolled parser (no external dependency) covering the
//! subcommands: `generate`, `stitch`, `shard`, `serve`, `serve-batch`,
//! `info`, and `simulate`. Parsing is pure so it is unit-testable;
//! execution lives in [`run`], which hands each subcommand family to its
//! module (`stitch`, `shard`, `serve`). Every output file is written by
//! one of the shared `sinks`, and the daemon's line-protocol session loop
//! is the testable [`serve_session`].

use std::collections::HashMap;
use std::path::PathBuf;

use stitch_core::pciam_real::TransformKind;
use stitch_core::Blend;
use stitch_fft::BackendChoice;
use stitch_image::{MultiChannelPlate, MultiScanConfig, ScanConfig, SyntheticPlate};
use stitch_sched::{DrainPolicy, JobVariant};

mod serve;
mod shard;
mod sinks;
mod stitch;

pub use serve::serve_session;

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Write a synthetic dataset to a directory.
    Generate {
        /// Output directory.
        out: PathBuf,
        /// Scan geometry.
        config: ScanConfig,
        /// Fluorescence channels (> 1 writes a multi-channel manifest).
        channels: usize,
        /// Focal planes per tile position (> 1 writes a z-stack).
        z_planes: usize,
    },
    /// Stitch a dataset directory end-to-end.
    Stitch {
        /// Dataset directory (with `manifest.tsv`).
        dataset: PathBuf,
        /// Stitcher variant (`--impl`).
        implementation: JobVariant,
        /// Worker threads (CPU variants) or CCF threads (GPU variants).
        threads: usize,
        /// Simulated GPU count (GPU variants).
        gpus: usize,
        /// Transform path.
        transform: TransformKind,
        /// Blend mode for composition.
        blend: Blend,
        /// Mosaic output path (`.pgm` or `.tif`); `None` skips composing.
        out: Option<PathBuf>,
        /// Where to write absolute positions as TSV.
        positions_out: Option<PathBuf>,
        /// Draw tile borders (Fig 14 style).
        highlight: bool,
        /// Max retries per failed tile read.
        retries: u32,
        /// Initial retry backoff in milliseconds (doubles per retry).
        retry_backoff_ms: u64,
        /// Fault-injection spec (`key=value,...`); `None` injects nothing.
        fault_spec: Option<String>,
        /// Degrade to a partial mosaic instead of aborting on tile loss.
        allow_partial: bool,
        /// Where to write the machine-readable health report as JSON.
        health_out: Option<PathBuf>,
        /// Where to write the merged CPU+GPU timeline as Chrome
        /// trace-event JSON (open in `chrome://tracing` / Perfetto).
        trace_out: Option<PathBuf>,
        /// Where to write the run report (per-stage busy/wait, queue
        /// stats, kernel density, copy/compute overlap) as JSON.
        report_out: Option<PathBuf>,
        /// Compute backend for the phase-1 hot loops. `None` defers to
        /// the `STITCH_BACKEND` environment variable, then auto-detect.
        backend: Option<BackendChoice>,
        /// Channel whose images drive registration (multi-channel datasets).
        ref_channel: usize,
        /// Estimate per-channel flat fields and correct every image before
        /// registration and composition.
        correct_illumination: bool,
        /// Compose one max-z projection per channel instead of one mosaic
        /// per (channel, plane).
        maxz: bool,
    },
    /// Stitch shard-by-shard under a fixed memory budget (out-of-core).
    Shard {
        /// Dataset directory; `None` stitches a synthetic plate instead.
        dataset: Option<PathBuf>,
        /// Synthetic scan geometry (used when `dataset` is `None`).
        config: ScanConfig,
        /// Max tile rows per shard.
        shard_rows: usize,
        /// Max tile columns per shard.
        shard_cols: usize,
        /// Memory budget in MB shared by all in-flight shards.
        budget_mb: usize,
        /// Concurrent shard jobs.
        workers: usize,
        /// Per-shard stitcher (CPU variants only).
        implementation: JobVariant,
        /// Compute threads per shard job.
        threads: usize,
        /// Blend mode for composition.
        blend: Blend,
        /// Mosaic output path (`.pgm` or `.tif`); `None` skips composing.
        out: Option<PathBuf>,
        /// Where to write absolute positions as TSV.
        positions_out: Option<PathBuf>,
        /// Pixel rows per composition band.
        band_rows: usize,
        /// Where to write a downsampled overview image (`.pgm` or
        /// `.tif`). Routes the banded composition through the chunked
        /// pyramid canvas, so the overview comes from `--preview-scale`
        /// without ever materializing the full mosaic.
        preview_out: Option<PathBuf>,
        /// Pyramid scale for `--preview` (0 = full resolution).
        preview_scale: usize,
        /// Where to write the merged per-shard timeline as Chrome
        /// trace-event JSON.
        trace_out: Option<PathBuf>,
    },
    /// Run the long-lived job daemon on stdin/stdout (and optionally a
    /// Unix socket), speaking the line protocol of [`stitch_serve`].
    Serve {
        /// Worker slots (concurrently running jobs).
        workers: usize,
        /// Host-memory admission budget in MB.
        budget_mb: usize,
        /// Bound on the pending queue; submissions past it shed.
        max_pending: usize,
        /// Default watchdog deadline for jobs that don't set one.
        watchdog_ms: Option<u64>,
        /// Per-tenant cap on jobs in flight (queued + running).
        tenant_jobs: usize,
        /// Per-tenant token-bucket burst; `None` disables rate limiting.
        rate_burst: Option<u32>,
        /// Token-bucket refill rate (tokens/second).
        rate_per_sec: f64,
        /// Per-tenant memory cap in MB (arbiter scope cap).
        tenant_cap_mb: Option<usize>,
        /// Queue-full overloads within the window that open the breaker
        /// (0 disables it).
        breaker_threshold: usize,
        /// What happens to in-flight jobs when stdin reaches EOF.
        drain: DrainPolicy,
        /// Also listen on this Unix socket (one session per client).
        socket: Option<PathBuf>,
        /// Where to write the merged multi-job Chrome trace on exit.
        trace_out: Option<PathBuf>,
        /// Directory for per-job run reports (`<tenant>__<job>.report.json`).
        reports_dir: Option<PathBuf>,
    },
    /// Run a batch of stitching jobs on the shared scheduler.
    ServeBatch {
        /// Job file (one `key=value ...` job per line; see
        /// [`stitch_sched::parse_job_file`]).
        jobs: PathBuf,
        /// Concurrent job slots.
        workers: usize,
        /// Host-memory admission budget in MB.
        budget_mb: usize,
        /// Stream-lease bound on the shared device (GPU jobs).
        stream_slots: Option<usize>,
        /// Where to write the merged multi-job Chrome trace.
        trace_out: Option<PathBuf>,
        /// Directory for per-job run reports (`report-<name>.json`).
        reports_dir: Option<PathBuf>,
    },
    /// Print dataset information.
    Info {
        /// Dataset directory.
        dataset: PathBuf,
    },
    /// Print the virtual-time Table II for a machine spec.
    Simulate {
        /// `testbed` or `laptop`.
        machine: String,
        /// Grid rows.
        rows: usize,
        /// Grid cols.
        cols: usize,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
stitch — hybrid CPU-GPU microscopy image stitching (ICPP 2014 reproduction)

USAGE:
  stitch generate --out DIR [--rows N] [--cols N] [--tile-width N]
                  [--tile-height N] [--overlap F] [--seed N]
                  [--channels N] [--z-planes N]
  stitch stitch --dataset DIR [--impl NAME] [--threads N] [--gpus N]
                [--transform complex|real|padded] [--blend overlay|first|average|linear]
                [--out mosaic.pgm|.tif] [--positions out.tsv] [--highlight]
                [--retries N] [--retry-backoff-ms N] [--allow-partial]
                [--fault-spec SPEC] [--health-json out.json]
                [--trace-json trace.json] [--run-report report.json]
                [--backend auto|scalar|portable|simd]
                [--ref-channel N] [--correct-illumination] [--maxz]
  stitch shard [--dataset DIR | --rows N --cols N [--tile-width N]
               [--tile-height N] [--overlap F] [--seed N]]
               [--shard-rows N] [--shard-cols N] [--mem-budget-mb N]
               [--workers N] [--impl NAME] [--threads N]
               [--blend overlay|first|average|linear] [--band-rows N]
               [--out mosaic.pgm|.tif] [--positions out.tsv]
               [--preview overview.pgm|.tif] [--preview-scale N]
               [--trace-json trace.json]
  stitch serve [--workers N] [--budget-mb N] [--max-pending N]
               [--watchdog-ms N] [--tenant-jobs N] [--rate-burst N]
               [--rate-per-sec F] [--tenant-cap-mb N]
               [--breaker-threshold N] [--drain finish|cancel-pending|cancel-all]
               [--socket PATH] [--trace-json trace.json] [--reports-dir DIR]
  stitch serve-batch --jobs FILE [--workers N] [--budget-mb N]
                     [--stream-slots N] [--trace-json trace.json]
                     [--reports-dir DIR]
  stitch info --dataset DIR
  stitch simulate [--machine testbed|laptop] [--rows N] [--cols N]
  stitch help

JOB FILE (serve-batch; one job per line, `#` comments):
  name=a variant=pipelined-cpu grid=6x8 tile=64x48 overlap=0.1 seed=5
         threads=2 priority=2 deadline-ms=5000 compose=false
  (malformed lines are reported per line; the rest of the batch runs)

SERVE PROTOCOL (one request per line on stdin or the socket; responses
and job lifecycle stream back as `event=... key=value` lines):
  submit name=a tenant=acme grid=6x8 tile=64x48 [preview=true] ...
  cancel name=a [tenant=acme]
  region name=a [tenant=acme] [scale=N] [x=N] [y=N] [w=N] [h=N]
  stats | ping | drain [policy=finish|cancel-pending|cancel-all]
  EOF on stdin drains the daemon (--drain policy) and exits.

IMPLEMENTATIONS: simple-cpu, mt-cpu, pipelined-cpu (default), simple-gpu,
                 pipelined-gpu, fiji

BACKENDS (phase-1 compute kernels; all bit-identical on displacements):
  auto     pick the fastest the host supports (default)
  scalar   sequential reference loops
  portable lane-unrolled loops the compiler auto-vectorizes
  simd     explicit AVX2 intrinsics (x86_64; falls back to portable)
  The STITCH_BACKEND environment variable applies when --backend is
  absent; --backend wins when both are given.

MULTI-CHANNEL / Z-STACK (generate --channels/--z-planes writes an
extended manifest; stitch detects it and registers ONCE on the
reference channel, replaying the solved frame across every channel and
plane — outputs are suffixed `_cCC_zZZ` / `_cCC_maxz`):
  --ref-channel N          channel whose images drive registration
  --correct-illumination   estimate per-channel flat fields from the
                           tile stack and correct before registering
  --maxz                   compose one max-z projection per channel

FAULT SPEC (comma-separated key=value):
  seed=N transient=RATE corrupt=R.C+R.C latency-ms=N     (tile reads)
  gpu-seed=N gpu-h2d=RATE gpu-d2h=RATE gpu-kernel=RATE
  gpu-oom=RATE gpu-retries=N                             (device ops)
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            // boolean flags take no value
            if name == "highlight"
                || name == "allow-partial"
                || name == "correct-illumination"
                || name == "maxz"
            {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(flags)
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    Ok(get_opt_num(flags, key)?.unwrap_or(default))
}

fn get_opt_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}"))
        })
        .transpose()
}

/// `--impl NAME`, one of [`JobVariant`]'s tokens.
fn get_variant(flags: &HashMap<String, String>, default: &str) -> Result<JobVariant, String> {
    let token = flags.get("impl").map(String::as_str).unwrap_or(default);
    JobVariant::parse(token).map_err(|e| format!("bad --impl: {e}"))
}

/// `--blend overlay|first|average|linear`.
fn get_blend(flags: &HashMap<String, String>) -> Result<Blend, String> {
    match flags.get("blend").map(String::as_str) {
        None | Some("overlay") => Ok(Blend::Overlay),
        Some("first") => Ok(Blend::First),
        Some("average") => Ok(Blend::Average),
        Some("linear") => Ok(Blend::Linear),
        Some(other) => Err(format!("bad --blend {other:?}")),
    }
}

/// The synthetic plate geometry flags (`--rows --cols --tile-width
/// --tile-height --overlap --seed`) over the CLI's default plate.
fn get_scan(flags: &HashMap<String, String>) -> Result<ScanConfig, String> {
    Ok(ScanConfig {
        grid_rows: get_num(flags, "rows", 8)?,
        grid_cols: get_num(flags, "cols", 12)?,
        tile_width: get_num(flags, "tile-width", 128)?,
        tile_height: get_num(flags, "tile-height", 96)?,
        overlap: get_num(flags, "overlap", 0.25)?,
        stage_jitter: 3.0,
        backlash_x: 1.5,
        noise_sigma: 50.0,
        vignette: 0.03,
        seed: get_num(flags, "seed", 2014)?,
    })
}

/// Parses the command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let flags = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => Ok(Command::Generate {
            out: flags
                .get("out")
                .ok_or("generate requires --out DIR")?
                .into(),
            config: ScanConfig {
                stage_jitter: get_num(&flags, "jitter", 3.0)?,
                noise_sigma: get_num(&flags, "noise", 50.0)?,
                ..get_scan(&flags)?
            },
            channels: get_num(&flags, "channels", 1)?,
            z_planes: get_num(&flags, "z-planes", 1)?,
        }),
        "stitch" => Ok(Command::Stitch {
            dataset: flags
                .get("dataset")
                .ok_or("stitch requires --dataset DIR")?
                .into(),
            implementation: get_variant(&flags, "pipelined-cpu")?,
            threads: get_num(&flags, "threads", 4)?,
            gpus: get_num(&flags, "gpus", 1)?,
            transform: match flags.get("transform").map(String::as_str) {
                None | Some("complex") => TransformKind::Complex,
                Some("real") => TransformKind::Real,
                Some("padded") => TransformKind::PaddedComplex,
                Some(other) => return Err(format!("bad --transform {other:?}")),
            },
            blend: get_blend(&flags)?,
            out: flags.get("out").map(PathBuf::from),
            positions_out: flags.get("positions").map(PathBuf::from),
            highlight: flags.contains_key("highlight"),
            retries: get_num(&flags, "retries", 3)?,
            retry_backoff_ms: get_num(&flags, "retry-backoff-ms", 1)?,
            fault_spec: flags.get("fault-spec").cloned(),
            allow_partial: flags.contains_key("allow-partial"),
            health_out: flags.get("health-json").map(PathBuf::from),
            trace_out: flags.get("trace-json").map(PathBuf::from),
            report_out: flags.get("run-report").map(PathBuf::from),
            backend: flags
                .get("backend")
                .map(|v| BackendChoice::parse(v).map_err(|e| format!("bad --backend: {e}")))
                .transpose()?,
            ref_channel: get_num(&flags, "ref-channel", 0)?,
            correct_illumination: flags.contains_key("correct-illumination"),
            maxz: flags.contains_key("maxz"),
        }),
        "shard" => Ok(Command::Shard {
            dataset: flags.get("dataset").map(PathBuf::from),
            config: get_scan(&flags)?,
            shard_rows: get_num(&flags, "shard-rows", 4)?,
            shard_cols: get_num(&flags, "shard-cols", 4)?,
            budget_mb: get_num(&flags, "mem-budget-mb", 256)?,
            workers: get_num(&flags, "workers", 2)?,
            implementation: get_variant(&flags, "simple-cpu")?,
            threads: get_num(&flags, "threads", 2)?,
            blend: get_blend(&flags)?,
            out: flags.get("out").map(PathBuf::from),
            positions_out: flags.get("positions").map(PathBuf::from),
            band_rows: get_num(&flags, "band-rows", 64)?,
            preview_out: flags.get("preview").map(PathBuf::from),
            preview_scale: get_num(&flags, "preview-scale", 2)?,
            trace_out: flags.get("trace-json").map(PathBuf::from),
        }),
        "serve" => Ok(Command::Serve {
            workers: get_num(&flags, "workers", 2)?,
            budget_mb: get_num(&flags, "budget-mb", 256)?,
            max_pending: get_num(&flags, "max-pending", 64)?,
            watchdog_ms: get_opt_num(&flags, "watchdog-ms")?,
            tenant_jobs: get_num(&flags, "tenant-jobs", 8)?,
            rate_burst: get_opt_num(&flags, "rate-burst")?,
            rate_per_sec: get_num(&flags, "rate-per-sec", 100.0)?,
            tenant_cap_mb: get_opt_num(&flags, "tenant-cap-mb")?,
            breaker_threshold: get_num(&flags, "breaker-threshold", 8)?,
            drain: match flags.get("drain").map(String::as_str) {
                None | Some("finish") => DrainPolicy::Finish,
                Some("cancel-pending") => DrainPolicy::CancelPending,
                Some("cancel-all") => DrainPolicy::CancelAll,
                Some(other) => return Err(format!("bad --drain {other:?}")),
            },
            socket: flags.get("socket").map(PathBuf::from),
            trace_out: flags.get("trace-json").map(PathBuf::from),
            reports_dir: flags.get("reports-dir").map(PathBuf::from),
        }),
        "serve-batch" => Ok(Command::ServeBatch {
            jobs: flags
                .get("jobs")
                .ok_or("serve-batch requires --jobs FILE")?
                .into(),
            workers: get_num(&flags, "workers", 2)?,
            budget_mb: get_num(&flags, "budget-mb", 256)?,
            stream_slots: get_opt_num(&flags, "stream-slots")?,
            trace_out: flags.get("trace-json").map(PathBuf::from),
            reports_dir: flags.get("reports-dir").map(PathBuf::from),
        }),
        "info" => Ok(Command::Info {
            dataset: flags
                .get("dataset")
                .ok_or("info requires --dataset DIR")?
                .into(),
        }),
        "simulate" => Ok(Command::Simulate {
            machine: match flags.get("machine").map(String::as_str) {
                None => "testbed".to_string(),
                Some(m @ ("testbed" | "laptop")) => m.to_string(),
                Some(other) => {
                    return Err(format!(
                        "bad --machine {other:?} (expected testbed or laptop)"
                    ))
                }
            },
            rows: get_num(&flags, "rows", 42)?,
            cols: get_num(&flags, "cols", 59)?,
        }),
        other => Err(format!("unknown command {other:?}; try `stitch help`")),
    }
}

/// Why a subcommand stopped: printed as `error: …`, exiting with `code`.
struct Failure {
    code: i32,
    message: String,
}

impl Failure {
    /// Exit 1: bad input, an unopenable dataset or plan, or a failed write.
    fn input(message: impl Into<String>) -> Failure {
        Failure {
            code: 1,
            message: message.into(),
        }
    }

    /// Exit 2: the run itself failed (phase 1 aborted on tile loss, a
    /// shard run failed, batch jobs did not complete).
    fn aborted(message: impl Into<String>) -> Failure {
        Failure {
            code: 2,
            message: message.into(),
        }
    }
}

/// Executes a parsed command. Returns a process exit code.
pub fn run(cmd: Command) -> i32 {
    let outcome = match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Generate {
            out,
            config,
            channels,
            z_planes,
        } => generate(&out, config, channels, z_planes),
        Command::Info { dataset } => info(&dataset),
        Command::Simulate {
            machine,
            rows,
            cols,
        } => {
            simulate(&machine, rows, cols);
            Ok(())
        }
        cmd @ Command::Stitch { .. } => stitch::run(cmd),
        cmd @ Command::Shard { .. } => shard::run(cmd),
        cmd @ Command::Serve { .. } => serve::run_serve(cmd),
        cmd @ Command::ServeBatch { .. } => serve::run_batch(cmd),
    };
    match outcome {
        Ok(()) => 0,
        Err(Failure { code, message }) => {
            eprintln!("error: {message}");
            code
        }
    }
}

/// `stitch generate`: writes a synthetic dataset (a multi-channel
/// manifest when more than one channel or plane is asked for).
fn generate(
    out: &std::path::Path,
    config: ScanConfig,
    channels: usize,
    z_planes: usize,
) -> Result<(), Failure> {
    let geometry = format!(
        "{}x{} grid of {}x{}",
        config.grid_rows, config.grid_cols, config.tile_width, config.tile_height
    );
    let fail = |e: stitch_image::ImageError| Failure::input(e.to_string());
    if channels > 1 || z_planes > 1 {
        let cfg = MultiScanConfig::for_channels(config, channels, z_planes);
        let n = MultiChannelPlate::generate(cfg)
            .write_to_dir(out)
            .map_err(fail)?;
        println!(
            "wrote {n} images ({geometry}, {} channel(s) x {} plane(s)) to {}",
            channels.max(1),
            z_planes.max(1),
            out.display()
        );
    } else {
        let n = SyntheticPlate::generate(config)
            .write_to_dir(out)
            .map_err(fail)?;
        println!("wrote {n} tiles ({geometry}) to {}", out.display());
    }
    Ok(())
}

/// `stitch info`: prints the dataset's grid and size.
fn info(dataset: &std::path::Path) -> Result<(), Failure> {
    let m = stitch_image::GridManifest::load(dataset).map_err(|e| Failure::input(e.to_string()))?;
    println!(
        "dataset {}: {}x{} grid, {}x{} px tiles, {:.0}% nominal overlap, {} files",
        dataset.display(),
        m.rows,
        m.cols,
        m.tile_width,
        m.tile_height,
        m.overlap * 100.0,
        m.tiles()
    );
    println!(
        "tile bytes {} ({:.1} MB dataset)",
        m.tile_width * m.tile_height * 2,
        (m.tiles() * m.tile_width * m.tile_height * 2) as f64 / 1e6
    );
    Ok(())
}

/// `stitch simulate`: prints the virtual-time Table II.
fn simulate(machine: &str, rows: usize, cols: usize) {
    use stitch_sim::*;
    // parse admits only `testbed` and `laptop`
    let m = match machine {
        "laptop" => MachineSpec::paper_laptop(),
        _ => MachineSpec::paper_testbed(),
    };
    let shape = stitch_core::GridShape::new(rows, cols);
    let cost = CostModel::paper_c2070();
    println!("virtual {machine} machine, {rows}x{cols} grid of 1392x1040 tiles:");
    let simple = simple_cpu_ns(shape, &cost);
    let rows_out = [
        ("Simple-CPU", simple),
        ("MT-CPU (16t)", mt_cpu_ns(shape, &cost, &m, 16)),
        (
            "Pipelined-CPU (16t)",
            pipelined_cpu_ns(shape, &cost, &m, 16),
        ),
        ("Simple-GPU", simple_gpu_ns(shape, &cost)),
        ("Pipelined-GPU x1", pipelined_gpu_ns(shape, &cost, &m, 1, 4)),
        (
            "Pipelined-GPU x2",
            pipelined_gpu_ns(shape, &cost, &m, 2.min(m.gpus), 4),
        ),
    ];
    for (name, ns) in rows_out {
        println!(
            "  {name:<22} {:>10.1}s  ({:.1}x vs Simple-CPU)",
            secs(ns),
            simple as f64 / ns as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::stitch::unit_output_path;
    use super::*;
    use std::io::Write;
    use std::sync::Arc;
    use stitch_serve::{ServeConfig, ServeDaemon};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_generate_defaults() {
        let cmd = parse(&argv("generate --out /tmp/x")).unwrap();
        match cmd {
            Command::Generate { out, config, .. } => {
                assert_eq!(out, PathBuf::from("/tmp/x"));
                assert_eq!(config.grid_rows, 8);
                assert_eq!(config.tile_width, 128);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_stitch_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --impl pipelined-gpu --gpus 2 --threads 8 \
             --transform real --blend linear --out m.tif --highlight",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                implementation,
                gpus,
                threads,
                transform,
                blend,
                out,
                highlight,
                ..
            } => {
                assert_eq!(implementation, JobVariant::PipelinedGpu);
                assert_eq!(gpus, 2);
                assert_eq!(threads, 8);
                assert_eq!(transform, TransformKind::Real);
                assert_eq!(blend, Blend::Linear);
                assert_eq!(out, Some(PathBuf::from("m.tif")));
                assert!(highlight);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_shard_flags() {
        let cmd = parse(&argv(
            "shard --rows 10 --cols 12 --tile-width 64 --tile-height 48 \
             --shard-rows 2 --shard-cols 3 --mem-budget-mb 64 --workers 3 \
             --impl mt-cpu --threads 4 --band-rows 32 --out m.pgm --positions p.tsv \
             --preview ov.pgm --preview-scale 3",
        ))
        .unwrap();
        match cmd {
            Command::Shard {
                dataset,
                config,
                shard_rows,
                shard_cols,
                budget_mb,
                workers,
                implementation,
                threads,
                out,
                positions_out,
                band_rows,
                preview_out,
                preview_scale,
                ..
            } => {
                assert_eq!(dataset, None);
                assert_eq!((config.grid_rows, config.grid_cols), (10, 12));
                assert_eq!((config.tile_width, config.tile_height), (64, 48));
                assert_eq!((shard_rows, shard_cols), (2, 3));
                assert_eq!(budget_mb, 64);
                assert_eq!(workers, 3);
                assert_eq!(implementation, JobVariant::MtCpu);
                assert_eq!(threads, 4);
                assert_eq!(out, Some(PathBuf::from("m.pgm")));
                assert_eq!(positions_out, Some(PathBuf::from("p.tsv")));
                assert_eq!(band_rows, 32);
                assert_eq!(preview_out, Some(PathBuf::from("ov.pgm")));
                assert_eq!(preview_scale, 3);
            }
            other => panic!("{other:?}"),
        }
        // datasets and synthetic specs both parse; GPU variants are
        // rejected at run time, not parse time
        match parse(&argv("shard --dataset /d")).unwrap() {
            Command::Shard {
                dataset,
                preview_out,
                preview_scale,
                ..
            } => {
                assert_eq!(dataset, Some(PathBuf::from("/d")));
                assert_eq!(preview_out, None, "preview is opt-in");
                assert_eq!(preview_scale, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --retries 5 --retry-backoff-ms 20 \
             --fault-spec transient=0.1,gpu-h2d=0.05 --allow-partial \
             --health-json h.json",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                retries,
                retry_backoff_ms,
                fault_spec,
                allow_partial,
                health_out,
                ..
            } => {
                assert_eq!(retries, 5);
                assert_eq!(retry_backoff_ms, 20);
                assert_eq!(fault_spec.as_deref(), Some("transient=0.1,gpu-h2d=0.05"));
                assert!(allow_partial);
                assert_eq!(health_out, Some(PathBuf::from("h.json")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_tolerance_defaults_are_strict() {
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                retries,
                retry_backoff_ms,
                fault_spec,
                allow_partial,
                health_out,
                ..
            } => {
                assert_eq!(retries, 3);
                assert_eq!(retry_backoff_ms, 1);
                assert_eq!(fault_spec, None);
                assert!(!allow_partial, "partial mosaics must be opt-in");
                assert_eq!(health_out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(&argv(
            "stitch --dataset /d --trace-json t.json --run-report r.json",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                trace_out,
                report_out,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(report_out, Some(PathBuf::from("r.json")));
            }
            other => panic!("{other:?}"),
        }
        // both default off: tracing must cost nothing unless asked for
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                trace_out,
                report_out,
                ..
            } => {
                assert_eq!(trace_out, None);
                assert_eq!(report_out, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_backend_flag() {
        match parse(&argv("stitch --dataset /d --backend scalar")).unwrap() {
            Command::Stitch { backend, .. } => assert_eq!(backend, Some(BackendChoice::Scalar)),
            other => panic!("{other:?}"),
        }
        // absent: defer to STITCH_BACKEND / auto-detection at dispatch time
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch { backend, .. } => assert_eq!(backend, None),
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("stitch --dataset /d --backend sse9")).unwrap_err();
        assert!(err.contains("--backend"), "{err}");
        assert!(err.contains("sse9"), "{err}");
    }

    #[test]
    fn parses_serve_batch_flags() {
        let cmd = parse(&argv(
            "serve-batch --jobs batch.txt --workers 4 --budget-mb 128 \
             --stream-slots 1 --trace-json t.json --reports-dir out",
        ))
        .unwrap();
        match cmd {
            Command::ServeBatch {
                jobs,
                workers,
                budget_mb,
                stream_slots,
                trace_out,
                reports_dir,
            } => {
                assert_eq!(jobs, PathBuf::from("batch.txt"));
                assert_eq!(workers, 4);
                assert_eq!(budget_mb, 128);
                assert_eq!(stream_slots, Some(1));
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(reports_dir, Some(PathBuf::from("out")));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve-batch --jobs batch.txt")).unwrap() {
            Command::ServeBatch {
                workers,
                budget_mb,
                stream_slots,
                ..
            } => {
                assert_eq!((workers, budget_mb), (2, 256));
                assert_eq!(stream_slots, None, "leasing unbounded by default");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve-batch")).is_err(), "missing --jobs");
        assert!(parse(&argv("serve-batch --jobs f --stream-slots x")).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&argv(
            "serve --workers 3 --max-pending 16 --watchdog-ms 5000 --tenant-jobs 4 \
             --rate-burst 10 --rate-per-sec 2.5 --tenant-cap-mb 64 \
             --breaker-threshold 3 --drain cancel-all --socket /tmp/s.sock",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                workers,
                max_pending,
                watchdog_ms,
                tenant_jobs,
                rate_burst,
                rate_per_sec,
                tenant_cap_mb,
                breaker_threshold,
                drain,
                socket,
                ..
            } => {
                assert_eq!(workers, 3);
                assert_eq!(max_pending, 16);
                assert_eq!(watchdog_ms, Some(5000));
                assert_eq!(tenant_jobs, 4);
                assert_eq!(rate_burst, Some(10));
                assert_eq!(rate_per_sec, 2.5);
                assert_eq!(tenant_cap_mb, Some(64));
                assert_eq!(breaker_threshold, 3);
                assert_eq!(drain, DrainPolicy::CancelAll);
                assert_eq!(socket, Some(PathBuf::from("/tmp/s.sock")));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                workers,
                watchdog_ms,
                rate_burst,
                drain,
                socket,
                ..
            } => {
                assert_eq!(workers, 2);
                assert_eq!(watchdog_ms, None, "no default watchdog");
                assert_eq!(rate_burst, None, "rate limiting is opt-in");
                assert_eq!(drain, DrainPolicy::Finish);
                assert_eq!(socket, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --drain nope")).is_err());
        assert!(parse(&argv("serve --watchdog-ms x")).is_err());
    }

    /// In-memory `Write + Send` sink for driving [`serve_session`].
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_session_streams_events_and_drains_on_eof() {
        let daemon = ServeDaemon::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let input: &[u8] = b"submit name=a grid=2x2 tile=32x24 compose=false\n\
                             this is not a request\n\
                             ping\n";
        let buf = SharedBuf::default();
        serve_session(&daemon, input, buf.clone(), Some(DrainPolicy::Finish)).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("event=queued tenant=default job=a"), "{text}");
        assert!(
            text.contains("event=error"),
            "malformed line contained: {text}"
        );
        assert!(text.contains("event=pong"), "{text}");
        assert!(
            text.contains("event=done tenant=default job=a status=completed"),
            "{text}"
        );
        assert!(text.contains("event=drained"), "EOF must drain: {text}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("stitch")).is_err(), "missing --dataset");
        assert!(parse(&argv("stitch --dataset /d --impl nope")).is_err());
        assert!(parse(&argv("shard --impl nope")).is_err());
        let err = parse(&argv("simulate --machine lapotp")).unwrap_err();
        assert!(err.contains("lapotp"), "{err}");
        assert!(parse(&argv("generate --out /tmp/x --rows abc")).is_err());
        assert!(
            parse(&argv("generate --out")).is_err(),
            "flag without value"
        );
    }

    #[test]
    fn parses_channel_flags() {
        match parse(&argv("generate --out /tmp/x --channels 3 --z-planes 4")).unwrap() {
            Command::Generate {
                channels, z_planes, ..
            } => assert_eq!((channels, z_planes), (3, 4)),
            other => panic!("{other:?}"),
        }
        // single-channel by default: existing datasets are unchanged
        match parse(&argv("generate --out /tmp/x")).unwrap() {
            Command::Generate {
                channels, z_planes, ..
            } => assert_eq!((channels, z_planes), (1, 1)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "stitch --dataset /d --ref-channel 1 --correct-illumination --maxz",
        ))
        .unwrap();
        match cmd {
            Command::Stitch {
                ref_channel,
                correct_illumination,
                maxz,
                ..
            } => {
                assert_eq!(ref_channel, 1);
                assert!(correct_illumination);
                assert!(maxz);
            }
            other => panic!("{other:?}"),
        }
        // defaults: register on channel 0, no correction, full stacks
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch {
                ref_channel,
                correct_illumination,
                maxz,
                ..
            } => {
                assert_eq!(ref_channel, 0);
                assert!(!correct_illumination, "correction must be opt-in");
                assert!(!maxz);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("stitch --dataset /d --ref-channel x")).is_err());
    }

    #[test]
    fn unit_output_paths_carry_the_label() {
        assert_eq!(
            unit_output_path(std::path::Path::new("/t/m.pgm"), "c01_z02"),
            PathBuf::from("/t/m_c01_z02.pgm")
        );
        assert_eq!(
            unit_output_path(std::path::Path::new("m.tif"), "c00_maxz"),
            PathBuf::from("m_c00_maxz.tif")
        );
        assert_eq!(
            unit_output_path(std::path::Path::new("mosaic"), "c00_z00"),
            PathBuf::from("mosaic_c00_z00")
        );
    }

    #[test]
    fn default_implementation_is_pipelined_cpu() {
        match parse(&argv("stitch --dataset /d")).unwrap() {
            Command::Stitch { implementation, .. } => {
                assert_eq!(implementation, JobVariant::PipelinedCpu)
            }
            other => panic!("{other:?}"),
        }
    }
}
