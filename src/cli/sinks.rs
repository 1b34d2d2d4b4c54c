//! Output sinks shared by every subcommand: each output format is
//! written in exactly one place, and a failed write is always exit 1.

use std::path::Path;

use stitch_core::AbsolutePositions;
use stitch_image::{pgm, tiff, Image};
use stitch_trace::{RunReport, TraceHandle};

use super::Failure;

/// The run's recorder: enabled only when some output asked for it, so
/// tracing costs nothing otherwise.
pub(super) fn trace_handle(enabled: bool) -> TraceHandle {
    if enabled {
        TraceHandle::new()
    } else {
        TraceHandle::disabled()
    }
}

/// Writes `contents` to `path`; a failure names `what` was being written.
pub(super) fn write_file(
    path: &Path,
    contents: impl AsRef<[u8]>,
    what: &str,
) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::input(format!("writing {what} {}: {e}", path.display())))
}

/// Writes absolute positions as a `row col x y` TSV, one line per tile.
pub(super) fn write_positions(path: &Path, positions: &AbsolutePositions) -> Result<(), Failure> {
    let mut tsv = String::from("row\tcol\tx\ty\n");
    for id in positions.shape.ids() {
        let (x, y) = positions.get(id);
        tsv.push_str(&format!("{}\t{}\t{x}\t{y}\n", id.row, id.col));
    }
    write_file(path, tsv, "positions")
}

/// Writes `image` as TIFF when `path` ends in `.tif`/`.tiff`, else PGM.
pub(super) fn write_image(path: &Path, image: &Image<u16>, what: &str) -> Result<(), Failure> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("tif") | Some("tiff") => tiff::write_tiff(path, image),
        _ => pgm::write_pgm(path, image),
    }
    .map_err(|e| Failure::input(format!("writing {what} {}: {e}", path.display())))
}

/// Writes the merged timeline as Chrome trace-event JSON.
pub(super) fn write_trace(path: &Path, trace: &TraceHandle) -> Result<(), Failure> {
    write_file(path, trace.to_chrome_json(), "trace")
}

/// Writes the run report derived from `trace` and returns it.
pub(super) fn write_run_report(path: &Path, trace: &TraceHandle) -> Result<RunReport, Failure> {
    let report = RunReport::from_trace(trace);
    write_file(path, report.to_json(), "run report")?;
    Ok(report)
}
