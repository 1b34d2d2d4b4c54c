//! In-process integration tests for the `stitch` CLI: parse + run over a
//! real temporary dataset.

use stitching::cli::{parse, run, Command};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn generate_then_info_then_stitch() {
    let dir = std::env::temp_dir().join("stitch_cli_it");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // generate
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(dir.join("manifest.tsv").exists());
    assert!(dir.join("img_c00_z00_r000_c000.tif").exists());

    // info
    let cmd = parse(&argv(&format!("info --dataset {dir_s}"))).unwrap();
    assert_eq!(run(cmd), 0);

    // stitch with outputs
    let mosaic = dir.join("mosaic.pgm");
    let pos = dir.join("pos.tsv");
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --out {} --positions {}",
        mosaic.display(),
        pos.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(mosaic.exists());
    let tsv = std::fs::read_to_string(&pos).unwrap();
    assert!(tsv.starts_with("row\tcol\tx\ty\n"));
    assert_eq!(tsv.lines().count(), 1 + 6, "header + one line per tile");

    // the mosaic decodes and is larger than a single tile
    let img = stitching::image::pgm::read_pgm(&mosaic).unwrap();
    assert!(img.width() > 64 && img.height() > 48);

    // real-transform path also works end to end
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl pipelined-cpu --transform real"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_then_stitch_multichannel_stack() {
    let dir = std::env::temp_dir().join("stitch_cli_it_channels");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // generate a 2-channel × 2-plane stack
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48 \
         --channels 2 --z-planes 2"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(dir.join("manifest.tsv").exists());
    assert!(dir.join("img_c01_z01_r001_c002.tif").exists());

    // stitch: the extended manifest flips the CLI into channel mode with
    // no extra flags — one mosaic per (channel, plane)
    let mosaic = dir.join("m.pgm");
    let pos = dir.join("pos.tsv");
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --out {} --positions {}",
        mosaic.display(),
        pos.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    for label in ["c00_z00", "c00_z01", "c01_z00", "c01_z01"] {
        assert!(
            dir.join(format!("m_{label}.pgm")).exists(),
            "missing unit {label}"
        );
    }
    let tsv = std::fs::read_to_string(&pos).unwrap();
    assert_eq!(tsv.lines().count(), 1 + 6, "one shared frame for all units");

    // max-z + flat-field correction: one projection per channel
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --maxz --correct-illumination \
         --ref-channel 1 --out {}",
        mosaic.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(dir.join("m_c00_maxz.pgm").exists());
    assert!(dir.join("m_c01_maxz.pgm").exists());
    let img = stitching::image::pgm::read_pgm(dir.join("m_c01_maxz.pgm")).unwrap();
    assert!(img.width() > 64 && img.height() > 48);

    // an out-of-range reference channel fails cleanly
    let cmd = parse(&argv(&format!("stitch --dataset {dir_s} --ref-channel 9"))).unwrap();
    assert_eq!(run(cmd), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multichannel_stitch_honours_observability_and_fault_flags() {
    use stitching::trace::json;

    let dir = std::env::temp_dir().join("stitch_cli_it_channel_flags");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48 \
         --channels 2 --z-planes 2"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);

    let (trace, report, health) = (
        dir.join("trace.json"),
        dir.join("report.json"),
        dir.join("health.json"),
    );
    let pos = dir.join("pos.tsv");
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --out {} --positions {} --trace-json {} \
         --run-report {} --health-json {} --fault-spec corrupt=1.1 --allow-partial \
         --highlight",
        dir.join("m.pgm").display(),
        pos.display(),
        trace.display(),
        report.display(),
        health.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0, "--allow-partial degrades instead of aborting");
    for path in [&trace, &report, &health] {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{} not written: {e}", path.display()));
        json::validate(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let health = std::fs::read_to_string(&health).unwrap();
    assert!(
        health.contains(r#""failed": [{"row": 1, "col": 1, "#),
        "tile (1,1) must be reported lost: {health}"
    );
    // the lost tile is a hole in every unit's mosaic: its centre is
    // covered by no other tile at 25% overlap
    let tsv = std::fs::read_to_string(&pos).unwrap();
    let (x, y) = tsv
        .lines()
        .find_map(|l| {
            let f: Vec<i64> = l.split('\t').map(|v| v.parse().unwrap_or(-1)).collect();
            (f[..2] == [1, 1]).then(|| (f[2] as usize, f[3] as usize))
        })
        .unwrap();
    for label in ["c00_z00", "c00_z01", "c01_z00", "c01_z01"] {
        let img = stitching::image::pgm::read_pgm(dir.join(format!("m_{label}.pgm"))).unwrap();
        assert_eq!(
            img.get(x + 32, y + 24),
            0,
            "unit {label} shows the lost tile"
        );
    }

    // without --allow-partial the lost tile aborts phase 1 (exit 2)
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --fault-spec corrupt=1.1"
    )))
    .unwrap();
    assert_eq!(run(cmd), 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stitch_missing_dataset_fails_cleanly() {
    let cmd = parse(&argv("stitch --dataset /nonexistent/place")).unwrap();
    assert_eq!(run(cmd), 1);
}

#[test]
fn info_missing_dataset_fails_cleanly() {
    let cmd = parse(&argv("info --dataset /nonexistent/place")).unwrap();
    assert_eq!(run(cmd), 1);
}

#[test]
fn simulate_runs() {
    let cmd = parse(&argv("simulate --machine laptop --rows 8 --cols 8")).unwrap();
    assert!(matches!(cmd, Command::Simulate { .. }));
    assert_eq!(run(cmd), 0);
}

#[test]
fn help_runs() {
    assert_eq!(run(Command::Help), 0);
}
